"""Uncompressed ``.npz`` archives: atomic deterministic writes, mmap reads.

The result artifact, the world-snapshot cache and the serving cluster's
snapshots all store flat NumPy arrays in an uncompressed ``.npz``.
``np.savez`` writes members in the order given with constant zip
timestamps, so equal arrays give identical bytes, and it stores them
``ZIP_STORED``, so each ``.npy`` payload is a contiguous byte range of
the archive that can be memory-mapped in place.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zipfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np


def write_npz_atomic(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` as an uncompressed ``.npz`` to exactly ``path``.

    A private temp file in the target directory is ``os.replace``\\ d
    over ``path``, so readers never see a partial file; on any error it
    is removed.  Writing through a file handle keeps ``np.savez`` from
    appending ``.npz`` to the name.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        # mkstemp files are 0600; open the file up to the umask's default
        # so a shared directory works across users
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def mmap_npz(path: str) -> dict[str, np.ndarray]:
    """Map every member of an uncompressed ``.npz`` read-only, uncopied.

    Reads each member's zip local header (data offset) and npy header
    (dtype, shape).  Raises ``ValueError`` on a compressed, object-dtype
    or otherwise unexpected member.
    """
    members: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {info.filename} is compressed")
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local header for {info.filename}")
            name_len, extra_len = struct.unpack("<HH", local[26:30])
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                raise ValueError(f"unsupported npy version {version}")
            if dtype.hasobject:
                raise ValueError(f"member {info.filename} holds objects")
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            if int(np.prod(shape)) == 0:
                members[name] = np.zeros(shape, dtype)
            else:
                members[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=raw.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    return members
