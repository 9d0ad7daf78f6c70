"""Build and load the compiled rounding extension (``_rounding.c``).

The extension is compiled on first use with the system C compiler (the one
Python's own extensions are linked with, ``sysconfig``'s ``LDSHARED``)
into the user cache directory, ``$XDG_CACHE_HOME/repro/ext`` (default
``~/.cache/repro/ext``), and loaded from there.  The file name carries a
hash of the source, the compiler command, the interpreter's extension
suffix and the NumPy version, so a warm cache never runs the compiler and a
changed source, flag or interpreter builds its own library.  A build writes to a temporary file
and publishes it by atomic rename: processes racing to build the same
library each publish a complete one.  A cached library that fails to load
is rebuilt once.

:func:`load` raises :class:`ImportError`, naming the compiler, when the
library cannot be built (no compiler, no Python or NumPy headers): the
package needs it, since the projected eigensolver runs only in C.

The library is compiled with ``-ffp-contract=off``: every ``a * b + c`` of
the eigensolver rounds its product before the sum, as NumPy does, and never
fuses into one FMA (GCC fuses by default where the target has FMA, as on
aarch64).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
import numpy as np

__all__ = ["SOURCE", "cache_dir", "compiler_command", "library_path", "load"]

#: the C source of the extension
SOURCE = Path(__file__).with_name("_rounding.c")
#: import name of the extension (its init function is ``PyInit__rounding``)
_MODULE = "repro.arithmetic._rounding"


def cache_dir() -> Path:
    """Directory the compiled libraries are cached in."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro" / "ext"


def library_path() -> Path:
    """Cache path of the library built from the current source with the
    current compiler command, for this interpreter and NumPy version."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    # the command with placeholder paths: the key does not depend on where
    # the checkout lies
    command = compiler_command(Path(SOURCE.name), Path("_rounding" + suffix))
    key = hashlib.sha256()
    parts = (SOURCE.read_bytes(), "\0".join(command).encode(), suffix.encode(), np.__version__.encode())
    for part in parts:
        key.update(part)
        key.update(b"\0")
    return cache_dir() / f"_rounding_{key.hexdigest()[:16]}{suffix}"


def compiler_command(source: Path, target: Path) -> list[str]:
    """The command compiling ``source`` into the shared library ``target``."""
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    pic = shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    includes = [sysconfig.get_paths()["include"], np.get_include()]
    return [
        *link,
        *pic,
        "-O2",
        "-ffp-contract=off",
        *(f"-I{path}" for path in includes),
        str(source),
        "-o",
        str(target),
        "-lm",
    ]


def _compile(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=target.suffix, dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            compiler_command(SOURCE, Path(tmp)),
            check=True,
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _import(path: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> ModuleType:
    """The compiled extension, built first when the cache has no loadable
    library for it.

    Raises
    ------
    ImportError
        When the library cannot be built; the message names the compiler
        and carries its error output.
    """
    path = library_path()
    if path.exists():
        try:
            return _import(path)
        except ImportError:
            pass  # truncated or corrupt: rebuild it
    try:
        _compile(path)
    except (OSError, subprocess.CalledProcessError) as exc:
        compiler = compiler_command(SOURCE, path)[0]
        stderr = getattr(exc, "stderr", None)
        detail = stderr.decode(errors="replace").strip() if stderr else exc
        raise ImportError(
            f"repro needs a C compiler to build its rounding kernel: {compiler!r} "
            f"failed ({detail})"
        ) from exc
    return _import(path)
