"""Filesystem adapter: every stripe/manifest byte goes through
``pyarrow.fs``, so an out_dir can be a plain local path, a ``file://``
URI, or an object-store URI (``s3://...``) — the reference reads
everything through an object_store ranged-GET abstraction
(src/object_store_reader.rs:39-59); this is our equivalent seam.

Local paths keep the fast-and-atomic os-level path (rename for
manifests, fsync); URI paths use the pyarrow FileSystem API (S3 'move'
is copy+delete — not atomic, but a stripe is named by its source
position and its writes are idempotent, so a duplicate PUT is harmless).
"""

from __future__ import annotations

import os

import pyarrow.fs as pafs


def resolve(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, fs-relative path) for a local path or URI."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def is_local(path: str) -> bool:
    return "://" not in path or path.startswith("file://")


def join(base: str, *parts: str) -> str:
    """URI-safe path join (os.path.join would mangle scheme slashes)."""
    out = base.rstrip("/")
    for p in parts:
        out = f"{out}/{p}"
    return out


def makedirs(path: str) -> None:
    fs, p = resolve(path)
    fs.create_dir(p, recursive=True)


def file_size(path: str) -> int:
    fs, p = resolve(path)
    info = fs.get_file_info(p)
    if info.type == pafs.FileType.NotFound:
        raise FileNotFoundError(path)
    return info.size


def read_bytes(path: str) -> bytes:
    fs, p = resolve(path)
    with fs.open_input_stream(p) as f:
        return f.read()


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Durable write: temp name + move so a crashed writer never leaves a
    half-written file under the final name. Local paths additionally
    flush+fsync the temp file BEFORE the rename — without it, a power loss
    after rename can surface an empty file under the final name (rename is
    atomic in the namespace, not for data blocks)."""
    import uuid

    if is_local(path):
        p = path[len("file://") :] if path.startswith("file://") else path
        tmp = f"{p}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, p)
        # the rename itself lives in the DIRECTORY: without fsyncing it,
        # a power loss after replace() returns can roll the entry back
        # even though the data blocks are durable
        try:
            dfd = os.open(os.path.dirname(p) or ".", os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        except OSError:
            pass  # some filesystems refuse dir fsync; data fsync stands
        return
    fs, p = resolve(path)
    tmp = f"{p}.tmp-{uuid.uuid4().hex[:8]}"
    with fs.open_output_stream(tmp) as f:
        f.write(data)
    fs.move(tmp, p)


def list_dir(path: str) -> list[str]:
    """Base names of files directly under ``path`` ([] if absent)."""
    fs, p = resolve(path)
    try:
        infos = fs.get_file_info(pafs.FileSelector(p, recursive=False))
    except (FileNotFoundError, OSError):
        return []
    return sorted(
        os.path.basename(i.path) for i in infos if i.type == pafs.FileType.File
    )


class RangedReader:
    """Ranged reads from one file — the decode path's equivalent of the
    reference's AsyncChunkReader ranged GETs (S8): a projected decode
    touches only the selected columns' stream byte ranges, and ``get``
    takes a range the last tail read already holds from memory."""

    def __init__(self, path: str) -> None:
        fs, p = resolve(path)
        self._f = fs.open_input_file(p)
        self.path = path
        self.bytes_read = 0
        self._tail, self._tail_start = b"", 0

    def read(self, offset: int, size: int) -> bytes:
        self._f.seek(offset)
        self.bytes_read += size
        return self._f.read(size)

    def read_tail(self, size: int) -> bytes:
        total = self._f.size()
        start = max(0, total - size)
        self._tail, self._tail_start = self.read(start, total - start), start
        return self._tail

    def get(self, offset: int, size: int) -> bytes:
        """``size`` bytes at ``offset``: sliced from the last ``read_tail``
        when it holds them, else a ranged read."""
        lo = offset - self._tail_start
        if lo >= 0 and lo + size <= len(self._tail):
            return self._tail[lo : lo + size]
        return self.read(offset, size)

    def size(self) -> int:
        return self._f.size()

    def close(self) -> None:
        self._f.close()
