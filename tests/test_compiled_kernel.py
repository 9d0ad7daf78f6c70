"""Build cache of the compiled rounding kernel and its analytic fallback.

The extension (``src/repro/arithmetic/_rounding.c``) is compiled on first
use into the user cache directory; these tests redirect that directory to
a temporary one and check that a warm cache never runs the compiler, that
a corrupt cached library is rebuilt, and that without a compiler every
format rounds through its analytic kernels, after one warning, with the
same results.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.arithmetic import _build, get_context
from repro.arithmetic import bitkernels as bk
from repro.arithmetic.context import EmulatedContext
from repro.arithmetic.ieee import IEEEFormat
from repro.arithmetic.posit import PositFormat
from repro.arithmetic.takum import TakumFormat


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty build cache, with every compiler invocation recorded."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []
    command = _build.compiler_command

    def recording(source, target):
        calls.append(target)
        return command(source, target)

    monkeypatch.setattr(_build, "compiler_command", recording)
    return calls


def _kernel_works(module) -> bool:
    """A kernel of the loaded module rounds to two fraction bits."""
    shift = np.full(1 << 12, 52 - 2, dtype=np.uint64)
    bias = (np.uint64(1) << (shift - np.uint64(1))) - np.uint64(1)
    special = np.zeros(1 << 12, dtype=np.uint8)
    kern = module.Kernel(shift, bias, special, False, False, bytearray(1))
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


def test_without_a_compiler_formats_round_analytically(cache, monkeypatch):
    """Formats built after a failed build round through their analytic
    kernels, after one warning, exactly like the compiled kernels."""
    fresh = {
        "posit16": PositFormat(16),
        "takum64": TakumFormat(64),
        "float16": IEEEFormat(5, 10, "float16"),
    }
    rng = np.random.default_rng(3)
    cases = []
    for name in fresh:
        compiled = get_context(name)
        values = np.concatenate(
            [rng.standard_normal(300) * 10.0 ** rng.uniform(-30, 30, 300), [0.0, -0.0, np.nan]]
        ).astype(compiled.dtype)
        scalars = [compiled.round_scalar(v) for v in values[:40]]
        cases.append((fresh[name], values, compiled.format.round_array(values), scalars))
    monkeypatch.setattr(_build, "compiler_command", lambda source, target: ["/nonexistent/cc"])
    monkeypatch.setattr(bk, "_extension", None)  # no library loaded yet
    monkeypatch.setattr(bk, "_ENABLED", True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not bk.bitkernels_enabled()
        for fmt, values, expected, scalars in cases:
            assert fmt.bitkernel() is None
            for size in (1, 5, values.size):
                got = fmt.round_array(values[:size])
                assert np.array_equal(got, expected[:size], equal_nan=True), fmt.name
                assert np.array_equal(np.signbit(got), np.signbit(expected[:size])), fmt.name
            ctx = EmulatedContext(fmt)
            for v, want in zip(values, scalars):
                got = ctx.round_scalar(v)
                assert type(got) is type(want)
                assert got == want or (np.isnan(got) and np.isnan(want)), (fmt.name, v)
    build = [w for w in caught if "compiled rounding kernel" in str(w.message)]
    assert len(build) == 1, [str(w.message) for w in build]
    assert build[0].category is RuntimeWarning
    assert "analytic" in str(build[0].message)
    assert not any(_build.cache_dir().iterdir())  # the failed build left nothing


@pytest.mark.skipif(
    not bk.bitkernels_enabled(),
    reason="bit kernels globally disabled (REPRO_DISABLE_BITKERNELS)",
)
def test_switch_reaches_formats_and_contexts_built_before_it():
    """Flipping the switch after a context has bound its format's kernel
    takes effect on the next call, and flipping it back restores it."""
    ctx = get_context("posit32")
    fmt = ctx.format
    values = np.linspace(-3.0, 3.0, 40)
    ctx.round(values)
    assert fmt._bound_kernel is not None
    previous = bk.set_enabled(False)
    try:
        assert fmt._bound_kernel is None
        assert fmt._round_one(0.3) is None
        assert np.array_equal(ctx.round(values), fmt.round_array_analytic(values))
        assert ctx.round_scalar(0.3) == fmt.round_scalar_analytic(0.3)
    finally:
        bk.set_enabled(previous)
    assert fmt._bound_kernel is fmt.bitkernel()
    assert fmt._round_one(0.3) == fmt.round_scalar_analytic(0.3)
