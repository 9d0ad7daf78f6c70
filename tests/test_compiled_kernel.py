"""Build cache of the compiled rounding kernel, and its build flags.

The extension (``src/repro/arithmetic/_rounding.c``) is compiled on first
use into the user cache directory; these tests redirect that directory to
a temporary one and check that a warm cache never runs the compiler, that
a corrupt cached library is rebuilt, that a changed compiler command
builds its own library, and that without a compiler loading the library
raises an ``ImportError`` that names the compiler.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.arithmetic import _build, get_context
from repro.arithmetic import bitkernels as bk
from tests._reference import round_array_analytic


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty build cache, with every build recorded."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []
    compile_ = _build._compile

    def recording(target):
        calls.append(target)
        return compile_(target)

    monkeypatch.setattr(_build, "_compile", recording)
    return calls


def _kernel_works(module) -> bool:
    """A kernel of the loaded module rounds to two fraction bits."""
    shift = np.full(1 << 12, 52 - 2, dtype=np.uint64)
    bias = (np.uint64(1) << (shift - np.uint64(1))) - np.uint64(1)
    special = np.zeros(1 << 12, dtype=np.uint8)
    mags, codes = np.zeros(1), np.zeros(1, dtype=np.int64)
    # no binade is special
    rule = (module.RULE_TABLE, module.NONFINITE_KEEP, mags, codes, 0.0, 0.0, 0.0)
    kern = module.Kernel(shift, bias, special, False, False, bytearray(1), rule)
    return kern.round_one(1.3) == 1.25 and kern.round_one(-1.4) == -1.5


def test_library_lands_in_the_cache_directory(cache, tmp_path):
    module = _build.load()
    path = _build.library_path()
    assert path.parent == tmp_path / "repro" / "ext"
    assert path.is_file() and len(cache) == 1
    assert _kernel_works(module)
    assert not [p for p in path.parent.iterdir() if p != path]  # no temporaries left


def test_warm_cache_never_calls_the_compiler(cache):
    assert _build.load() is not None
    assert len(cache) == 1
    for _ in range(3):
        assert _kernel_works(_build.load())
    assert len(cache) == 1


def test_corrupt_cached_library_is_rebuilt(cache):
    path = _build.library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a shared library")
    module = _build.load()
    assert len(cache) == 1
    assert _kernel_works(module)
    assert path.read_bytes()[:4] != b"not "


def test_cache_key_follows_the_numpy_version(cache, monkeypatch):
    path = _build.library_path()
    monkeypatch.setattr(np, "__version__", "0.0.0")
    assert _build.library_path() != path
    assert _build.library_path().parent == path.parent


def test_cache_key_follows_the_compiler_command(cache, monkeypatch):
    """A flag added to the compiler command builds a library of its own
    instead of loading the one cached for the old command."""
    path = _build.library_path()
    command = _build.compiler_command
    monkeypatch.setattr(
        _build, "compiler_command", lambda source, target: [*command(source, target), "-DFLAG"]
    )
    assert _build.library_path() != path
    assert _kernel_works(_build.load())
    assert cache == [_build.library_path()]


def test_cache_key_does_not_follow_the_checkout_location(monkeypatch, tmp_path):
    path = _build.library_path()
    moved = tmp_path / "_rounding.c"
    moved.write_bytes(_build.SOURCE.read_bytes())
    monkeypatch.setattr(_build, "SOURCE", moved)
    assert _build.library_path() == path


def test_compiler_command_never_fuses_multiply_add():
    """The eigensolver rounds every product before its sum: the library is
    built without floating-point contraction (no FMA), on every target."""
    command = _build.compiler_command(Path("in.c"), Path("out.so"))
    assert "-ffp-contract=off" in command
    assert command.index("-ffp-contract=off") < command.index("in.c")


def test_without_a_compiler_loading_raises_import_error(cache, monkeypatch):
    """The library is required: without a compiler, loading it raises an
    ImportError that names the compiler, and the failed build leaves
    nothing in the cache."""
    monkeypatch.setattr(_build, "compiler_command", lambda source, target: ["/nonexistent/cc"])
    monkeypatch.setattr(bk, "_extension", None)  # no library loaded yet
    with pytest.raises(ImportError, match="/nonexistent/cc"):
        bk.extension()
    with pytest.raises(ImportError, match="C compiler"):
        _build.load()
    assert bk._extension is None
    assert not any(_build.cache_dir().iterdir())


@pytest.mark.skipif(
    not bk.bitkernels_enabled(),
    reason="bit kernels globally disabled (REPRO_DISABLE_BITKERNELS)",
)
def test_switch_reaches_formats_and_contexts_built_before_it():
    """Flipping the switch after a context has bound its format's kernel
    takes effect on the next call (the kernel without lookup tables, which
    rounds by the format's rule alone), and flipping it back restores the
    kernel bound before."""
    ctx = get_context("posit32")
    fmt = ctx.format
    values = np.linspace(-3.0, 3.0, 40)
    ctx.round(values)
    bound = fmt._bound_kernel
    assert bound._special is not None
    expected = round_array_analytic(fmt, np.asarray([0.3]))[0]
    previous = bk.set_enabled(False)
    try:
        assert fmt._bound_kernel._special is None
        assert ctx.compiled_rounding() is fmt._bound_kernel.compiled
        assert np.array_equal(ctx.round(values), round_array_analytic(fmt, values))
        assert ctx.round_scalar(0.3) == expected
    finally:
        bk.set_enabled(previous)
    assert fmt._bound_kernel is bound is fmt.bitkernel()
    assert fmt._round_one(0.3) == expected
