import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from strz.errors import PreconditionError, SnapshotFormatError, SupportEscapeError
from strz.exponents import Exponent
from strz.snapshot import read_snapshot, write_snapshot
from strz import spectral
from strz.spectral import (
    ComplexField,
    Trajectory,
    dispersive_decay_fit,
    free_multiplier,
    free_propagate,
    gaussian_field,
    lq_norm,
    lq_norm_table,
    lq_norms,
    make_grid,
    rescale_field,
    shell_mass_fraction,
    strang_step,
)

from conftest import same_bits


def evolved_gaussian(grid, t, sigma=1.0):
    """Closed form of exp(it Lap) applied to exp(-|x|^2 / (2 sigma^2)).

    Multiplying the Gaussian's Fourier transform by exp(+i t |xi|^2) and
    inverting gives (sigma^2 / (sigma^2 - 2it))^(n/2) exp(-|x|^2 / (2(sigma^2 - 2it))).
    """
    a = sigma**2 - 2j * t
    rsq = sum(x**2 for x in grid.coords())
    return (sigma**2 / a) ** (grid.n / 2.0) * np.exp(-rsq / (2.0 * a))


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return ComplexField(grid, vals)


class TestGrid:
    def test_worked_examples(self):
        assert make_grid(1, 16, 256).spacing == pytest.approx(1 / 8)
        assert make_grid(2, 10, 128).npoints == 128**2
        assert make_grid(3, 8, 64).npoints == 64**3

    def test_invalid(self):
        with pytest.raises(PreconditionError):
            make_grid(4, 8, 64)
        with pytest.raises(PreconditionError):
            make_grid(1, 8, 100)  # not a power of two
        with pytest.raises(PreconditionError):
            make_grid(1, 8, 4)  # too small
        with pytest.raises(PreconditionError):
            make_grid(1, -1.0, 64)

    @pytest.mark.parametrize("L", [float("inf"), float("nan")])
    def test_nonfinite_half_width(self, L):
        with pytest.raises(PreconditionError, match="finite"):
            make_grid(1, L, 64)

    def test_coordinates_and_frequencies(self):
        g = make_grid(1, 2.0, 8)
        assert g.axis()[0] == -2.0
        assert g.axis()[-1] == pytest.approx(2.0 - g.spacing)
        # frequency lattice is pi/L times integers
        np.testing.assert_allclose(sorted(g.freq_axis()), np.pi / 2.0 * np.arange(-4, 4))


class TestComplexField:
    def test_shape_mismatch(self):
        g = make_grid(1, 1.0, 8)
        with pytest.raises(PreconditionError):
            ComplexField(g, np.zeros(9, dtype=complex))

    def test_rejects_nonfinite(self):
        g = make_grid(1, 1.0, 8)
        vals = np.zeros(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(PreconditionError):
            ComplexField(g, vals)

    def test_immutable(self):
        g = make_grid(1, 1.0, 8)
        f = ComplexField(g, np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_trajectory_validation(self):
        g = make_grid(1, 1.0, 8)
        f = ComplexField(g, np.ones(8, dtype=complex))
        with pytest.raises(PreconditionError):
            Trajectory(times=[0.0, 0.0], states=[f, f], energy_log=[1.0, 1.0])


class TestFreePropagate:
    def test_identity_at_zero(self):
        g = make_grid(1, 10.0, 64)
        u = random_field(g)
        assert free_propagate(u, 0.0) is u

    def test_gaussian_closed_form(self):
        g = make_grid(1, 20.0, 512)
        u0 = gaussian_field(g, sigma=1.0)
        for t in (0.1, 0.5, 1.0):
            ut = free_propagate(u0, t)
            exact = evolved_gaussian(g, t)
            err = np.sqrt(np.sum(np.abs(ut.values - exact) ** 2) * g.cell_volume)
            assert err < 1e-10

    def test_unitarity(self):
        g = make_grid(2, 8.0, 32)
        for seed in range(5):
            u = random_field(g, seed)
            n0 = lq_norm(u, 2)
            for t in (0.1, 1.0, 10.0, -10.0):
                ratio = lq_norm(free_propagate(u, t), 2) / n0
                assert abs(ratio - 1.0) < 1e-12

    def test_group_law(self):
        g = make_grid(1, 10.0, 128)
        u = random_field(g, 3)
        a = free_propagate(free_propagate(u, 0.3), 0.45)
        b = free_propagate(u, 0.75)
        diff = np.abs(a.values - b.values).max()
        assert diff < 1e-12 * np.abs(b.values).max()


PHASE_THETAS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-3, -1e-3, 1.0, -1.0,
                1e3, -1e3, 1e8, -1e8]


class TestUnitPhase:
    @pytest.mark.parametrize("theta", PHASE_THETAS)
    def test_special_angles_match_complex_exp(self, theta):
        theta = np.array([theta])
        assert same_bits(spectral.unit_phase(theta), np.exp(1j * theta))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8])
    def test_random_angles_match_complex_exp(self, scale):
        theta = np.random.default_rng(7).uniform(-scale, scale, (64, 64))
        assert same_bits(spectral.unit_phase(theta), np.exp(1j * theta))

    def test_in_place_from_imaginary_part(self):
        theta = np.random.default_rng(8).uniform(-3.0, 3.0, (32, 32))
        theta[0, :2] = -0.0, 0.0
        out = np.empty(theta.shape, dtype=np.complex128)
        out.imag[...] = theta
        assert spectral.unit_phase(out.imag, out=out) is out
        assert same_bits(out, np.exp(1j * theta))

    @pytest.mark.parametrize("t", [2.5e-4, 1e-3 / 2, 0.01, 0.3, 10.0])
    @pytest.mark.parametrize("n, N", [(1, 128), (2, 64), (3, 16)])
    def test_free_multiplier_matches_complex_exp(self, n, N, t):
        g = make_grid(n, 8.0, N)
        assert same_bits(free_multiplier(g, t), np.exp(1j * t * spectral._ksq(g)))

    def test_free_multiplier_backward_differs_only_in_the_sign_of_one_zero(self):
        # 1j * t keeps the -0 of t * 0 at xi = 0 for t < 0; unit_phase gives +0
        g = make_grid(2, 8.0, 32)
        ref = np.exp(1j * -10.0 * spectral._ksq(g))
        assert np.signbit(ref.imag.flat[0])
        ref.imag.flat[0] = 0.0
        assert same_bits(free_multiplier(g, -10.0), ref)


def reference_strang_step(a, kin, phase=None):
    """Out-of-place form of the Strang step, one temporary per operation."""
    if phase is None:
        return np.fft.ifftn(kin * np.fft.fftn(a))
    return phase * np.fft.ifftn(kin * np.fft.fftn(phase * a))


def strang_operands(n, N, with_phase, seed=0):
    g = make_grid(n, 8.0, N)
    a = random_field(g, seed).values  # read-only, as every caller passes
    kin = free_multiplier(g, 0.01)
    rng = np.random.default_rng(seed + 1)
    phase = np.exp(0.005j * rng.standard_normal(g.shape)) if with_phase else None
    return a, kin, phase


class TestStrangStep:
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_matches_out_of_place_reference(self, n, N, with_phase):
        a, kin, phase = strang_operands(n, N, with_phase)
        got = strang_step(a, kin, phase)
        ref = reference_strang_step(a, kin, phase)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("with_phase", [False, True])
    def test_input_untouched(self, with_phase):
        a, kin, phase = strang_operands(2, 32, with_phase)
        assert not a.flags.writeable
        before = a.copy()
        strang_step(a, kin, phase)
        np.testing.assert_array_equal(a, before)
        owned = before.copy()  # a writeable input is not written either
        out = strang_step(owned, kin, phase)
        np.testing.assert_array_equal(owned, before)
        assert not np.shares_memory(out, owned)

    @pytest.mark.parametrize("with_phase", [False, True])
    def test_one_allocation(self, with_phase):
        a, kin, phase = strang_operands(3, 32, with_phase)
        strang_step(a, kin, phase)  # warm numpy's FFT plan cache
        tracemalloc.start()
        try:
            strang_step(a, kin, phase)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * a.nbytes

    @pytest.mark.parametrize("with_phase", [False, True])
    def test_out_filled_bitwise_and_returned(self, with_phase):
        a, kin, phase = strang_operands(2, 32, with_phase)
        before = a.copy()
        o = np.empty_like(before)
        assert strang_step(a, kin, phase, out=o) is o
        np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(o, strang_step(a, kin, phase))

    @pytest.mark.parametrize("with_phase", [False, True])
    def test_out_allocates_no_grid(self, with_phase):
        a, kin, phase = strang_operands(3, 32, with_phase)
        o = np.empty_like(a)
        strang_step(a, kin, phase, out=o)  # warm numpy's FFT plan cache
        tracemalloc.start()
        try:
            strang_step(a, kin, phase, out=o)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * a.nbytes


def serial_strang_step(a, kin, phase=None):
    """strang_step's serial arithmetic: the same in-place products around
    one np.fft.fftn and one np.fft.ifftn of the whole array."""
    out = np.empty(a.shape, dtype=np.complex128)
    if phase is None:
        np.copyto(out, a)
    else:
        np.multiply(phase, a, out=out)
    np.fft.fftn(out, out=out)
    np.multiply(kin, out, out=out)
    np.fft.ifftn(out, out=out)
    if phase is not None:
        np.multiply(phase, out, out=out)
    return out


def _step_in_child(a, kin, phase, expected, parent_worker):
    """Target of a forked child: its own worker, the parent's bits."""
    assert spectral._worker(os.getpid()) is not parent_worker
    assert same_bits(strang_step(a, kin, phase), expected)


SPLIT_GRIDS = [(3, 64), (2, 512)]  # 2^18 points each: PARALLEL_MIN_POINTS


class TestSplitStrangStep:
    """Grids of PARALLEL_MIN_POINTS points and up step in two threads when
    two or more CPUs are allowed, with the serial bits either way."""

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_bit_identical_to_serial(self, n, N, with_phase, worker_ffts):
        a, kin, phase = strang_operands(n, N, with_phase)
        assert a.size == spectral.PARALLEL_MIN_POINTS and not a.flags.writeable
        before = a.copy()
        got = strang_step(a, kin, phase)
        assert same_bits(got, serial_strang_step(a, kin, phase))
        assert same_bits(a, before)
        assert bool(worker_ffts) == spectral._two_cpus()

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_into_a_fresh_out(self, n, N, with_phase):
        a, kin, phase = strang_operands(n, N, with_phase)
        out = np.empty_like(a)
        assert strang_step(a, kin, phase, out=out) is out
        assert same_bits(out, serial_strang_step(a, kin, phase))

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_into_a_row_of_a_stack(self, n, N, with_phase):
        # the Duhamel sweep's strang_step(out[j], kin, out=out[j + 1])
        a, kin, phase = strang_operands(n, N, with_phase)
        stack = np.zeros((3,) + a.shape, dtype=np.complex128)
        stack[0] = a
        row = stack[1]
        assert strang_step(stack[0], kin, phase, out=row) is row
        assert same_bits(stack[1], serial_strang_step(a, kin, phase))
        assert same_bits(stack[0], a)
        assert not stack[2].any()

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    def test_one_cpu_takes_the_serial_path(self, n, N, monkeypatch, worker_ffts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        a, kin, phase = strang_operands(n, N, True)
        assert same_bits(strang_step(a, kin, phase), serial_strang_step(a, kin, phase))
        assert worker_ffts == []

    def test_small_grids_import_no_executor(self):
        # concurrent.futures loads logging, about 0.6 MB of peak RSS that a
        # process stepping only grids below PARALLEL_MIN_POINTS does not pay
        code = ("import sys, numpy as np\n"
                "from strz.spectral import free_multiplier, make_grid, strang_step\n"
                "g = make_grid(2, 8.0, 256)\n"
                "strang_step(np.ones(g.shape), free_multiplier(g, 0.01))\n"
                "sys.exit('concurrent.futures' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("raiser", ["worker", "caller"])
    def test_error_reaches_caller_after_both_halves_stop(self, monkeypatch, raiser):
        monkeypatch.setattr(spectral, "_two_cpus", lambda: True)
        a, kin, phase = strang_operands(2, 512, True)
        main = threading.get_ident()
        log = []  # the other half's slow FFT: "start", then "stop" once done

        def half(fn, mine):
            def wrapper(*args, **kwargs):
                if mine != (threading.get_ident() == main):
                    return fn(*args, **kwargs)  # not the stage-A half under test
                if raiser == ("caller" if mine else "worker"):
                    raise RuntimeError(f"{raiser} half")
                log.append("start")
                time.sleep(0.1)
                result = fn(*args, **kwargs)
                log.append("stop")
                return result

            return wrapper

        # in stage A this thread makes the fftn call, the worker the fft calls
        monkeypatch.setattr(np.fft, "fftn", half(np.fft.fftn, mine=True))
        monkeypatch.setattr(np.fft, "fft", half(np.fft.fft, mine=False))
        with pytest.raises(RuntimeError, match=f"{raiser} half"):
            strang_step(a, kin, phase)
        assert log == ["start", "stop"]

    def test_a_step_on_the_worker_returns(self):
        # in a child process, so that a worker waiting on its own queue
        # fails the test instead of hanging the interpreter's exit
        code = ("import os, numpy as np\n"
                "from strz import spectral\n"
                "spectral._two_cpus = lambda: True\n"
                "g = spectral.make_grid(3, 8.0, 64)\n"
                "rng = np.random.default_rng(0)\n"
                "u = spectral.ComplexField(g, rng.standard_normal(g.shape) + 0j)\n"
                "kin = spectral.free_multiplier(g, 0.01)\n"
                "phase = spectral.unit_phase(rng.standard_normal(g.shape))\n"
                "serial = phase * u.values\n"  # serial_strang_step's in-place calls
                "np.fft.fftn(serial, out=serial)\n"
                "np.multiply(kin, serial, out=serial)\n"
                "np.fft.ifftn(serial, out=serial)\n"
                "np.multiply(phase, serial, out=serial)\n"
                "free = spectral.free_propagate(u, 0.01).values\n"
                "worker = spectral._worker(os.getpid())\n"
                "got = worker.submit(spectral.strang_step, u.values, kin, phase).result()\n"
                "assert got.tobytes() == serial.tobytes()\n"
                "got = worker.submit(spectral.free_propagate, u, 0.01).result().values\n"
                "assert got.tobytes() == free.tobytes()\n")
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        try:
            done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("a step on the worker thread did not return")
        assert done.returncode == 0

    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(spectral, "_two_cpus", lambda: True)
        a, kin, phase = strang_operands(3, 64, True)
        expected = strang_step(a, kin, phase)  # starts this process's worker
        parent_worker = spectral._worker(os.getpid())
        child = multiprocessing.get_context("fork").Process(
            target=_step_in_child, args=(a, kin, phase, expected, parent_worker))
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() in a process with threads; the
            # child touches only its own worker
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's step did not finish")
        assert child.exitcode == 0
        assert same_bits(strang_step(a, kin, phase), expected)


def real_formula(f, sym, op):
    """real_fourier_multiply's serial arithmetic: numpy's own rfftn and
    irfftn over every axis around one op."""
    axes = tuple(range(f.ndim))
    return np.fft.irfftn(op(np.fft.rfftn(f, axes=axes), sym), s=f.shape, axes=axes)


def real_operands(n, N):
    grid = make_grid(n, 8.0, N)
    f = np.random.default_rng(N + n).standard_normal(grid.shape)
    return f, 1.0 + spectral._half_ksq(grid)


class TestRealFourierMultiply:
    """The real half-spectrum multiplier: grids of PARALLEL_MIN_POINTS
    points and up run in two threads when two or more CPUs are allowed,
    with the serial formula's bits either way."""

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS + [(3, 32), (2, 128), (1, 64)])
    @pytest.mark.parametrize("op", [np.multiply, np.divide])
    @pytest.mark.parametrize("two_cpus", [True, False])
    def test_bit_identical_to_serial(self, n, N, op, two_cpus, monkeypatch, worker_ffts):
        monkeypatch.setattr(spectral, "_two_cpus", lambda: two_cpus)
        f, sym = real_operands(n, N)
        f.flags.writeable = False
        got = spectral.real_fourier_multiply(f, sym, op)
        assert got.dtype == np.float64 and got.shape == f.shape
        assert same_bits(got, real_formula(f, sym, op))
        split = two_cpus and f.size >= spectral.PARALLEL_MIN_POINTS
        # the worker makes one-axis passes only
        assert set(worker_ffts) == ({"rfft", "fft", "ifft", "irfft"} if split else set())

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    def test_one_cpu_takes_the_serial_path(self, n, N, monkeypatch, worker_ffts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        f, sym = real_operands(n, N)
        assert same_bits(spectral.real_fourier_multiply(f, sym, np.divide),
                         real_formula(f, sym, np.divide))
        assert worker_ffts == []

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS + [(2, 32)])
    def test_in_place_and_into_a_strided_out(self, n, N):
        f, sym = real_operands(n, N)
        expected = real_formula(f, sym, np.divide)
        spectrum = np.empty(sym.shape, dtype=np.complex128)
        cplx = np.zeros(f.shape, dtype=np.complex128)
        got = spectral.real_fourier_multiply(f, sym, np.divide, cplx.imag, spectrum)
        assert np.shares_memory(got, cplx) and same_bits(cplx.imag, expected)
        assert not cplx.real.any()
        assert spectral.real_fourier_multiply(f, sym, np.divide, f, spectrum) is f
        assert same_bits(f, expected)

    def test_buffers_allocate_no_grid(self):
        f, sym = real_operands(3, 64)
        out, spectrum = np.empty_like(f), np.empty(sym.shape, dtype=np.complex128)
        spectral.real_fourier_multiply(f, sym, np.multiply, out, spectrum)  # warm the plans
        tracemalloc.start()
        try:
            spectral.real_fourier_multiply(f, sym, np.multiply, out, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at most the ufunc's buffers for casting the real symbol (three
        # operands of np.getbufsize() complex entries, one set per thread)
        assert peak <= 2 * 3 * 16 * np.getbufsize() + 0.05 * f.nbytes


class TestLqNorm:
    def test_constant_field(self):
        g = make_grid(1, 4.0, 64)
        c = 2.5
        f = ComplexField(g, np.full(g.shape, c, dtype=complex))
        assert lq_norm(f, 2) == pytest.approx(c * np.sqrt(2 * g.L), rel=1e-14)
        assert lq_norm(f, "inf") == pytest.approx(c)

    def test_max_modulus(self):
        g = make_grid(1, 4.0, 64)
        u = random_field(g, 7)
        assert lq_norm(u, "inf") == np.abs(u.values).max()

    def test_gaussian_l2(self):
        g = make_grid(1, 16.0, 256)
        u = gaussian_field(g, sigma=1.0)
        assert lq_norm(u, 2) == pytest.approx(np.pi**0.25, rel=1e-12)

    @pytest.mark.parametrize("center", [(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_gaussian_center_needs_one_coordinate_per_axis(self, center):
        # zip would drop the missing coordinates: (1.0,) would shift only x
        with pytest.raises(PreconditionError, match="center needs 3 coordinates"):
            gaussian_field(make_grid(3, 4.0, 8), center=center)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, "8/3", 4, 6, 8, "inf"])
    def test_stacked_matches_per_state(self, n, q):
        g = make_grid(n, 4.0, 8)
        states = [random_field(g, seed) for seed in range(5)]
        stack = np.stack([u.values for u in states])
        stacked = lq_norms(stack, g, q)
        assert stacked.shape == (5,)
        for u, got in zip(states, stacked):
            mod = np.abs(u.values).ravel()
            if q == "inf":
                ref = max(mod)
            else:
                qf = float(Exponent(q))
                ref = (sum(m**qf for m in mod) * g.cell_volume) ** (1.0 / qf)
            assert lq_norm(u, q) == pytest.approx(ref, rel=1e-13)
            assert got == pytest.approx(lq_norm(u, q), rel=1e-14)

    @pytest.mark.parametrize("n, N", [(1, 2**14), (2, 128), (3, 32)])
    @pytest.mark.parametrize("rows", [1, 2, 17])
    def test_stack_rows_normed_alone_bit_for_bit(self, n, N, rows):
        # a Duhamel sweep logs its rows' norms a chunk lo:hi at a time (one
        # row on a wavefront), and decides from them as from the whole
        # stack's table; rows of 2^14 points and up are beyond einsum's
        # 8192-point buffer
        g = make_grid(n, 4.0, N)
        rng = np.random.default_rng(rows)
        stack = rng.standard_normal((rows,) + g.shape) + 1j * rng.standard_normal((rows,) + g.shape)
        qs = [2, 4, 6, 8, "inf"]
        table = lq_norm_table(stack, g, qs)
        for j in range(rows):
            alone = lq_norm_table(stack[j:j + 1], g, qs)
            for q in table:
                assert same_bits(table[q][j], alone[q][0]), (q, j)
        for chunk in (2, 5):
            for lo in range(0, rows, chunk):
                hi = min(lo + chunk, rows)
                part = lq_norm_table(stack[lo:hi], g, qs)
                for q in table:
                    assert same_bits(table[q][lo:hi], part[q]), (q, lo, hi)
            # a state that is not a stack matches where no root is taken by pow
            single = lq_norm_table(stack[j], g, qs)
            for q in (Exponent(2), Exponent("inf")):
                assert same_bits(table[q][j], single[q]), (q, j)

    def test_refinement_order(self):
        # Riemann sums on a marginally resolved Gaussian: the error must
        # drop at least 4x per grid doubling (it drops much faster).
        sigma, L, q = 0.35, 12.0, 3
        exact = (2 * np.pi * sigma**2 / 3) ** (1 / 6)
        errs = []
        for N in (32, 64, 128):
            u = gaussian_field(make_grid(1, L, N), sigma=sigma)
            errs.append(abs(lq_norm(u, q) - exact))
        assert errs[0] / errs[1] > 4
        assert errs[1] / errs[2] > 4


def array_root(scaled, qf):
    """scaled^(1/qf) by numpy's vectorized pow, a single state's sum as a
    one-element array."""
    return np.power(np.reshape(scaled, -1), 1.0 / qf).reshape(np.shape(scaled))[()]


def per_q_norms(values, grid, q):
    """One q at a time, by the operations of a per-q pass: |u| first, then
    the max, sqrt of the summed squares, or the root of the summed powers."""
    axes = tuple(range(-grid.n, 0))
    mod = np.abs(values)
    if q == "inf":
        return mod.max(axis=axes)
    qf = float(Exponent(q))
    if qf == 2.0:
        return np.sqrt(np.square(mod).sum(axis=axes) * grid.cell_volume)
    return array_root(np.power(mod, qf).sum(axis=axes) * grid.cell_volume, qf)


class TestLqNormTable:
    QS = [1, 2, 3, 4, 6, 8, "8/3", "inf"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("complex_valued", [True, False])
    @pytest.mark.parametrize("stacked", [True, False])
    def test_matches_per_q_reference(self, n, complex_valued, stacked):
        g = make_grid(n, 4.0, 8)
        rng = np.random.default_rng(n)
        shape = ((3,) if stacked else ()) + g.shape
        values = rng.standard_normal(shape)
        if complex_valued:
            values = values + 1j * rng.standard_normal(shape)
        table = lq_norm_table(values, g, self.QS)
        assert set(table) == {Exponent(q) for q in self.QS}
        for q in self.QS:
            got, ref = table[Exponent(q)], per_q_norms(values, g, q)
            assert np.shape(got) == np.shape(ref) == shape[:1 if stacked else 0]
            if q in (4, 6):  # fused products, not pow: roundoff only
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
            else:
                np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(lq_norms(values, g, q), got)

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 8)])
    def test_a_state_has_its_stack_row_bits(self, n, N):
        # a single state's root is the vectorized pow of a stack's rows, not
        # numpy's scalar C pow, which differs in the last bit for some sums
        g = make_grid(n, 4.0, N)
        rng = np.random.default_rng(10 + n)
        shape = (50,) + g.shape
        stack = rng.uniform(0.1, 3.0, (50,) + (1,) * n) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        qs = (4, 6, 8, "8/3")
        rows = lq_norm_table(stack, g, qs)
        for i, row in enumerate(stack):
            single = lq_norm_table(row, g, qs)
            for q in qs:
                assert same_bits(single[Exponent(q)], rows[Exponent(q)][i]), (i, q)

    def test_input_untouched(self):
        g = make_grid(2, 4.0, 8)
        values = random_field(g, 3).values.real.copy()
        before = values.copy()
        lq_norm_table(values, g, self.QS)
        np.testing.assert_array_equal(values, before)

    @pytest.mark.parametrize("qs", [(2, 4, 6), (2, 8)])
    def test_one_real_buffer(self, qs):
        # a 2D N=64 Duhamel piece of 41 nodes: |u| is half the complex stack
        g = make_grid(2, 10.0, 64)
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((41,) + g.shape) + 1j * rng.standard_normal((41,) + g.shape)
        tracemalloc.start()
        try:
            lq_norm_table(stack, g, qs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * stack.nbytes, peak / stack.nbytes


def whole_array_table(values, grid, qs):
    """The norm table of one whole-array pass, as lq_norm_table takes it on
    grids below PARALLEL_MIN_POINTS: |u| once, the max, then |u|^2 in place
    for q = 2 and the einsums of q = 4 and 6 (a stack's q = 4 row by row),
    and a power pass per other q."""
    exps = {Exponent(q) for q in qs}
    axes = tuple(range(-grid.n, 0))
    mod = np.abs(values)
    table = {Exponent("inf"): mod.max(axis=axes)} if Exponent("inf") in exps else {}
    sq = np.square(np.abs(values))
    sub = "..." + "ijk"[:grid.n]
    for q in exps:
        qf = float(q)
        if qf == 2.0:
            table[q] = np.sqrt(sq.sum(axis=axes) * grid.cell_volume)
        elif qf in (4.0, 6.0):
            factors = 3 if qf == 6.0 else 2
            spec = ",".join([sub] * factors) + "->..."
            if factors == 2 and sq.ndim > grid.n:
                rows = sq.reshape((-1,) + grid.shape)
                total = np.array([np.einsum(spec, r, r) for r in rows])
                total = total.reshape(sq.shape[:-grid.n])
            else:
                total = np.einsum(spec, *[sq] * factors)
            table[q] = array_root(total * grid.cell_volume, qf)
        elif not q.is_infinite:
            table[q] = array_root(np.power(mod, qf).sum(axis=axes) * grid.cell_volume, qf)
    return table


class TestSplitNormTable:
    """Rows of PARALLEL_MIN_POINTS points and up are normed as the two
    halves of their first spatial axis; a single state's halves run on the
    caller and the worker when two or more CPUs are allowed."""

    QS = [2, 4, 6, 8, "8/3", "inf"]
    EXACT = [2, 8, "8/3", "inf"]  # the pairwise sum splits at the midpoint
    FUSED = [4, 6]  # einsum sums: the last bits move

    @staticmethod
    def state(n, N, rows=None, seed=0):
        g = make_grid(n, 8.0, N)
        shape = g.shape if rows is None else (rows,) + g.shape
        rng = np.random.default_rng(seed)
        return g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.fixture
    def halves_calls(self, monkeypatch):
        """Records every _in_two_halves call."""
        calls = []
        real = spectral._in_two_halves

        def recorded(mine, theirs):
            calls.append(threading.get_ident())
            return real(mine, theirs)

        monkeypatch.setattr(spectral, "_in_two_halves", recorded)
        return calls

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    def test_same_bits_on_one_cpu_or_two(self, n, N, monkeypatch, halves_calls):
        g, values = self.state(n, N)
        before = values.copy()
        tables = []
        for two in (True, False):
            monkeypatch.setattr(spectral, "_two_cpus", lambda two=two: two)
            tables.append(lq_norm_table(values, g, self.QS))
            assert len(halves_calls) == 1  # only the two-CPU table split
        for q in map(Exponent, self.QS):
            assert same_bits(tables[0][q], tables[1][q]), q
        assert same_bits(values, before)

    @pytest.mark.parametrize("n, N", SPLIT_GRIDS)
    @pytest.mark.parametrize("rows", [None, 3])
    def test_against_the_whole_array(self, n, N, rows):
        g, values = self.state(n, N, rows)
        table = lq_norm_table(values, g, self.QS)
        whole = whole_array_table(values, g, self.QS)
        for q in map(Exponent, self.EXACT):
            assert same_bits(table[q], whole[q]), q
        for q in map(Exponent, self.FUSED):
            np.testing.assert_allclose(table[q], whole[q], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n, N", [(3, 32), (2, 256), (1, 4096)])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_small_grids_norm_the_whole_array(self, n, N, rows, halves_calls):
        g, values = self.state(n, N, rows)
        table = lq_norm_table(values, g, self.QS)
        whole = whole_array_table(values, g, self.QS)
        for q in map(Exponent, self.QS):
            assert same_bits(table[q], whole[q]), q
        assert halves_calls == []

    def test_stack_rows_normed_alone_bit_for_bit(self):
        g, stack = self.state(3, 64, rows=3)
        table = lq_norm_table(stack, g, self.QS)
        for j in range(len(stack)):
            alone = lq_norm_table(stack[j:j + 1], g, self.QS)
            for q in table:
                assert same_bits(table[q][j], alone[q][0]), (q, j)
        for lo, hi in ((0, 2), (1, 3)):
            part = lq_norm_table(stack[lo:hi], g, self.QS)
            for q in table:
                assert same_bits(table[q][lo:hi], part[q]), (q, lo, hi)

    def test_stacks_never_split_across_threads(self, monkeypatch, halves_calls):
        # the wavefront norms one-row stacks on both threads: a split there
        # would queue the caller's half behind the worker's sweep chain
        monkeypatch.setattr(spectral, "_two_cpus", lambda: True)
        g, stack = self.state(3, 64, rows=2)
        lq_norm_table(stack, g, self.QS)
        lq_norm_table(stack[:1], g, self.QS)
        assert halves_calls == []

    def test_a_state_normed_on_the_worker_returns(self):
        # in a child process, so that a worker waiting on its own queue
        # fails the test instead of hanging the interpreter's exit
        code = ("import os, numpy as np\n"
                "from strz import spectral\n"
                "spectral._two_cpus = lambda: True\n"
                "g = spectral.make_grid(3, 8.0, 64)\n"
                "u = np.random.default_rng(0).standard_normal(g.shape) + 0j\n"
                "qs = (2, 4, 6, 'inf')\n"
                "expected = spectral.lq_norm_table(u, g, qs)\n"
                "got = spectral._worker(os.getpid()).submit(spectral.lq_norm_table, u, g, qs)\n"
                "got = got.result()\n"
                "assert all(got[q].tobytes() == expected[q].tobytes() for q in expected)\n")
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        try:
            done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("a state normed on the worker thread did not return")
        assert done.returncode == 0


class TestRescale:
    def test_identity(self):
        g = make_grid(1, 8.0, 64)
        u = gaussian_field(g)
        assert rescale_field(u.values, g, 1.0) is u.values

    def test_norm_identity_shrink(self):
        # eps = 2, n = 3, q = 2 -> factor 2^(-3/2)
        g = make_grid(3, 8.0, 32)
        u = gaussian_field(g, sigma=1.5)
        v = rescale_field(u.values, g, 2.0)
        assert lq_norms(v, g, 2) == pytest.approx(2.0 ** (-1.5) * lq_norm(u, 2), rel=1e-6)

    def test_norm_identity_widen(self):
        # eps = 1/2, n = 2, q = 4 -> factor sqrt(2)
        g = make_grid(2, 16.0, 128)
        u = gaussian_field(g, sigma=1.0)
        v = rescale_field(u.values, g, 0.5)
        assert lq_norms(v, g, 4) == pytest.approx(np.sqrt(2.0) * lq_norm(u, 4), rel=1e-6)

    def test_norm_identity_sweep(self):
        g = make_grid(1, 24.0, 512)
        u = gaussian_field(g, sigma=1.0)
        for eps in (0.25, 0.5, 2.0, 4.0):
            for q in (2, 4):
                v = rescale_field(u.values, g, eps)
                assert lq_norms(v, g, q) == pytest.approx(
                    eps ** (-1.0 / q) * lq_norm(u, q), rel=1e-6
                )

    def test_pointwise_against_exact(self):
        g = make_grid(1, 16.0, 256)
        u = gaussian_field(g, sigma=1.0)
        v = rescale_field(u.values, g, 0.5)
        x = g.axis()
        np.testing.assert_allclose(v, np.exp(-((0.5 * x) ** 2) / 2), atol=1e-10)

    def test_support_escape(self):
        g = make_grid(1, 8.0, 64)
        u = gaussian_field(g, sigma=4.0)
        with pytest.raises(SupportEscapeError):
            rescale_field(u.values, g, 0.25)

    def test_real_stays_real(self):
        g = make_grid(1, 16.0, 128)
        u = gaussian_field(g, sigma=1.0)
        v = rescale_field(u.values, g, 1.5)
        assert v.dtype == np.complex128
        assert np.abs(v.imag).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_input_gives_float64(self, n):
        # real samples take real products end to end, equal to the real
        # part of the complex input's result
        u = kernel_input(n, complex_valued=False)
        v = rescale_field(u.values.real, u.grid, 1.37)
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, rescale_field(u.values, u.grid, 1.37).real)

    def test_invalid_eps(self):
        g = make_grid(1, 8.0, 64)
        u = gaussian_field(g)
        for eps in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(PreconditionError):
                rescale_field(u.values, g, eps)


def dense_rescale(u, eps):
    """Rescaling by the dense matrix E[j, m] = exp(i xi_m (eps x_j + L)) / N,
    with a cosine Nyquist column and zeroed escaped rows, applied along each
    axis of fft(u)."""
    g = u.grid
    x, xi = g.axis(), g.freq_axis()
    target = eps * x + g.L
    E = np.exp(1j * np.outer(target, xi)) / g.N
    E[:, g.N // 2] = np.cos(target * xi[g.N // 2]) / g.N
    E[np.abs(eps * x) > g.L * (1.0 + 1e-12)] = 0.0
    out = np.fft.fftn(u.values)
    for axis in range(g.n):
        out = np.moveaxis(np.tensordot(E, out, axes=([1], [axis])), 0, axis)
    if np.abs(u.values.imag).max() == 0.0:
        out = out.real.astype(np.complex128)
    return out


KERNEL_GRIDS = {1: (16.0, 128), 2: (16.0, 64), 3: (12.0, 32)}
KERNEL_EPS = (0.8, 1.37, 2.0)


def kernel_input(n, complex_valued):
    g = make_grid(n, *KERNEL_GRIDS[n])
    u = gaussian_field(g, sigma=1.2)
    if complex_valued:
        u = ComplexField(g, u.values * np.exp(0.7j * g.coords()[0]))
    return u


def broadcast_sinc_matrix(g, eps):
    """_sinc_matrix with its power tables formed by the complex exp and
    E = coarse (x) fine by one 3-D broadcast over every row."""
    N = g.N
    x = g.axis()
    theta = (np.pi / g.L) * (eps * x + g.L)
    B = 1 << (N.bit_length() // 2)
    fine = np.exp(1j * np.outer(theta, np.arange(B))) / N
    coarse = np.exp(1j * np.outer(theta, B * np.fft.fftfreq(N // B, B / N)))
    E = (coarse[:, :, None] * fine[:, None, :]).reshape(N, N)
    E[:, N // 2] = E[:, N // 2].real
    E[np.abs(eps * x) > g.L * (1.0 + 1e-12), :] = 0.0
    np.fft.fftn(E, axes=(1,), out=E)
    return np.ascontiguousarray(E.real)


class TestSincKernel:
    @pytest.mark.parametrize("eps", KERNEL_EPS)
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_matrix(self, n, complex_valued, eps):
        u = kernel_input(n, complex_valued)
        v = rescale_field(u.values, u.grid, eps)
        ref = dense_rescale(u, eps)
        assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()
        escaped = np.flatnonzero(np.abs(eps * u.grid.axis()) > u.grid.L * (1.0 + 1e-12))
        for axis in range(n):  # targets outside the box are exactly zero
            assert not np.take(v, escaped, axis=axis).any()
        if not complex_valued:
            assert np.abs(v.imag).max() == 0.0

    @pytest.mark.parametrize("eps", KERNEL_EPS)
    @pytest.mark.parametrize("N", [8, 64, 128])
    def test_rows_reproduce_constants(self, N, eps):
        # the block is exactly the in-box rows, and each sums to 1
        g = make_grid(1, 16.0, N)
        block, lo = spectral._sinc_matrix(g, eps)
        escaped = np.abs(eps * g.axis()) > g.L * (1.0 + 1e-12)
        assert block.dtype == np.float64
        np.testing.assert_array_equal(np.flatnonzero(~escaped), lo + np.arange(len(block)))
        assert np.abs(block.sum(axis=1) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("eps", KERNEL_EPS + (0.5, 3.0, 1 / 0.75, 0.3))
    @pytest.mark.parametrize("N", [8, 16, 64, 128, 256])
    def test_matches_broadcast_build(self, N, eps):
        # the block built by one broadcast product of unit_phase tables
        # equals, bit for bit, the in-box rows of the one 3-D broadcast of
        # complex-exp tables, whose escaped rows are exactly zero
        g = make_grid(1, 16.0, N)
        block, lo = spectral._sinc_matrix(g, eps)
        full = broadcast_sinc_matrix(g, eps)
        rows = slice(lo, lo + len(block))
        assert same_bits(block, full[rows])
        assert not full[:lo].any() and not full[rows.stop:].any()

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_fftn_and_no_ifftn_per_call(self, n, complex_valued, monkeypatch):
        u = kernel_input(n, complex_valued)
        calls = {"fftn": 0, "ifftn": 0}

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        for eps in KERNEL_EPS:
            rescale_field(u.values, u.grid, eps)
        assert calls == {"fftn": len(KERNEL_EPS), "ifftn": 0}


class TestDecayFit:
    def test_gaussian_slope_1d(self):
        g = make_grid(1, 48.0, 1024)
        u0 = gaussian_field(g, sigma=0.5)
        fit = dispersive_decay_fit(u0, (0.5, 4.0))
        assert abs(fit.slope - (-0.5)) < 0.05 * 0.5

    def test_sigma_matches_lp_lq_exponent(self):
        # sigma = n/2 - n/q at q = inf equals n/2: the fitted magnitude
        g = make_grid(1, 48.0, 1024)
        u0 = gaussian_field(g, sigma=0.5)
        fit = dispersive_decay_fit(u0, (0.5, 4.0))
        n = 1
        sigma_exp = n / 2 - 0  # q = inf
        assert abs(-fit.slope - sigma_exp) < 0.05 * sigma_exp

    def test_box_escape_error(self):
        g = make_grid(1, 8.0, 128)
        u0 = gaussian_field(g, sigma=0.5)
        with pytest.raises(SupportEscapeError):
            dispersive_decay_fit(u0, (0.5, 50.0))


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        g = make_grid(2, 5.0, 16)
        u = random_field(g, 11)
        path = tmp_path / "field.strz"
        write_snapshot(u, path)
        v = read_snapshot(path)
        assert v.grid == g
        np.testing.assert_array_equal(v.values, u.values)

    def test_read_holds_one_copy_of_the_file(self, tmp_path):
        # the field is a read-only view of the file's bytes, not a copy of them
        g = make_grid(3, 5.0, 32)
        u = random_field(g, 12)
        path = tmp_path / "field.strz"
        write_snapshot(u, path)
        tracemalloc.start()
        try:
            v = read_snapshot(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * path.stat().st_size
        assert not v.values.flags.writeable
        assert same_bits(v.values, u.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.strz"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated(self, tmp_path):
        g = make_grid(1, 5.0, 16)
        u = random_field(g, 1)
        path = tmp_path / "trunc.strz"
        write_snapshot(u, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_bad_version(self, tmp_path):
        g = make_grid(1, 5.0, 16)
        u = random_field(g, 2)
        path = tmp_path / "ver.strz"
        write_snapshot(u, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


    def test_header_grid_not_a_power_of_two(self, tmp_path):
        # N = 12 is refused by Grid; the reader reports a malformed file
        path = tmp_path / "n12.strz"
        path.write_bytes(struct.pack("<4sIIId", b"STRZ", 1, 1, 12, 5.0) + bytes(12 * 16))
        with pytest.raises(SnapshotFormatError, match="invalid grid header"):
            read_snapshot(path)


class TestShellMass:
    def test_centered_gaussian_tiny(self):
        g = make_grid(1, 16.0, 128)
        u = gaussian_field(g, sigma=1.0)
        assert shell_mass_fraction(u.values, g) < 1e-12

    def test_edge_bump_large(self):
        g = make_grid(1, 16.0, 128)
        u = gaussian_field(g, sigma=1.0, center=(15.0,))
        assert shell_mass_fraction(u.values, g) > 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_mass_refused(self, bad):
        # a NaN total would compare False against any tolerance and pass
        g = make_grid(2, 8.0, 16)
        vals = gaussian_field(g).values.real.copy()
        vals[8, 8] = bad
        with pytest.raises(PreconditionError, match="not finite"):
            spectral.check_support(vals, g, 1e-8, "probe")
        with pytest.raises(PreconditionError, match="not finite"):
            rescale_field(vals, g, 1.5)

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("where", [(8, 8), (0, 3)], ids=["center", "shell"])
    def test_huge_finite_sample(self, where, complex_valued):
        # 1e200 squares past float64: the fraction comes from the samples
        # divided by their max modulus, with no overflow warning
        g = make_grid(2, 8.0, 16)
        vals = gaussian_field(g).values.real.copy()
        vals[where] = 1e200
        if complex_valued:
            vals = vals * np.exp(0.3j)
        frac = shell_mass_fraction(vals, g)
        assert frac == shell_mass_fraction(vals / np.abs(vals).max(), g)
        if where == (8, 8):
            assert frac < 1e-300
            spectral.check_support(vals, g, 1e-8, "probe")
        else:
            assert frac == pytest.approx(1.0, abs=1e-15)
            with pytest.raises(SupportEscapeError):
                rescale_field(vals, g, 1.5)

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_masked_sum(self, n, complex_valued):
        # the cached shell mask and the in-place square change no bit
        g = make_grid(n, 8.0, 16)
        u = random_field(g, seed=n).values
        if not complex_valued:
            u = u.real
        mass = np.abs(u) ** 2
        radius_inf = np.abs(np.stack(g.coords())).max(axis=0)
        ref = mass[radius_inf >= spectral.SHELL_FRACTION * g.L].sum() / mass.sum()
        assert shell_mass_fraction(u, g) == ref
        assert shell_mass_fraction(u, g) == ref  # again, from the cached mask

    def test_mask_cached_per_grid(self):
        g = make_grid(2, 8.0, 16)
        mask = spectral._shell_mask(g)
        assert spectral._shell_mask(make_grid(2, 8.0, 16)) is mask
        assert not mask.flags.writeable
