"""Every reserving entry point reserves at least its peak, and reserves before it allocates.

A spy on `lattice.reserve` records the bytes each call reserves.  Nested sites hold
their arrays at once, so a call's reservations add up; its `tracemalloc` peak must
not exceed that sum.  With the budget one byte below the call's first reservation
of 1 MiB or more, the call must be refused there with a peak under 1 MiB: it
refused before it allocated any large array.
"""

import tracemalloc

import numpy as np
import pytest

import u1rotor as u
from u1rotor.trotter import product_scaling_study, term_series

MIB = 1 << 20


def _model(lat, n_q, g=0.7):
    return u.build_model(lat, u.digitize(lat.n_p, n_q, g, "compact"))


def _peak(call) -> int:
    """The most bytes ``call()`` held allocated at once, as `tracemalloc` counts them."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def _loschmidt(lat, n_q):
    model, plan = _model(lat, n_q, 0.5), u.TrotterPlan(2, 0.05, 2)
    return lambda: u.loschmidt_sweep(model, [plan])


def _term(width):
    d = u.digitize(2, width // 2, 0.7, "non-compact")
    return lambda: term_series(u.BilinearTerm("BB", 0, 1, 1.0), d, 1.0)


def _diagonal(call, n):
    series = u.WalshSeries(n, {0: 0.5, 1 << (n - 1): -0.25, (1 << n) - 1: 0.125})
    return lambda: call(series)


def _cosine(n_p, n_q, theta):
    # the maximal cosine at a cutoff low enough to keep most of its masks
    d = u.digitize(n_p, n_q, 0.7, "compact")
    return lambda: u.cosine_sweep_counts(u.magnetic_terms(d)[-1:], d, -1.0, [theta])


def _ground_state(lat, n_q):
    model = _model(lat, n_q)
    return lambda: u.electric_ground_state(model)


def _unitary(width):
    gates = [u.Gate("h", (width - 1,)), u.Gate("rz", (0,), 0.3), u.Gate("cx", (0, width - 1)),
             u.Gate("cu1", (1, width - 1), 0.3), u.Gate("swap", (0, width - 1))]
    return lambda: u.circuit_unitary(u.Circuit(width, gates))


# entry point -> two sizes that run in well under a second each
CALLS = {
    "term_series-16": _term(16),
    "term_series-18": _term(18),
    "operator_diagonals-15": lambda: u.operator_diagonals(_model(u.LatticeSpec(2, 2), 5)),
    "operator_diagonals-16": lambda: u.operator_diagonals(_model(u.LatticeSpec(3, 3), 2)),
    "dense_matrix-10": lambda: u.dense_matrix(_model(u.LatticeSpec(2, 3), 2)),
    "dense_matrix-11": lambda: u.dense_matrix(_model(u.LatticeSpec(3, 4), 1)),
    "dense_electric-10": lambda: u.dense_electric(_model(u.LatticeSpec(2, 3), 2)),
    "dense_electric-11": lambda: u.dense_electric(_model(u.LatticeSpec(3, 4), 1)),
    "exact_evolution-8": lambda: u.exact_evolution(_model(u.LatticeSpec(3, 3), 1), 0.1),
    "exact_evolution-9": lambda: u.exact_evolution(_model(u.LatticeSpec(2, 2), 3), 0.1),
    "ground_state-12": lambda: u.ground_state(_model(u.LatticeSpec(2, 2), 4)),
    "ground_state-14": lambda: u.ground_state(_model(u.LatticeSpec(2, 4), 2)),
    "plaquette_expectation-12": lambda: u.plaquette_expectation(_model(u.LatticeSpec(2, 2), 4)),
    "plaquette_expectation-14": lambda: u.plaquette_expectation(_model(u.LatticeSpec(2, 4), 2)),
    "error_bound-12": lambda: u.error_bound(_model(u.LatticeSpec(2, 2), 4), u.TrotterPlan(1, 0.1, 1)),
    "error_bound-14": lambda: u.error_bound(_model(u.LatticeSpec(2, 4), 2), u.TrotterPlan(1, 0.1, 1)),
    "loschmidt_sweep-14": _loschmidt(u.LatticeSpec(2, 4), 2),
    "loschmidt_sweep-16": _loschmidt(u.LatticeSpec(3, 3), 2),
    "product_scaling_study-16": lambda: product_scaling_study(2, 8, 0.1),
    "product_scaling_study-18": lambda: product_scaling_study(3, 6, 0.1),
    "state_values-16": _diagonal(u.state_values, 16),
    "state_values-18": _diagonal(u.state_values, 18),
    "inverse_fwt-16": _diagonal(u.inverse_fwt, 16),
    "inverse_fwt-18": _diagonal(u.inverse_fwt, 18),
    "cosine_sweep_counts-16": _cosine(8, 2, 1e-12),
    "cosine_sweep_counts-18": _cosine(6, 3, 1e-12),
    "electric_ground_state-16": _ground_state(u.LatticeSpec(3, 3), 2),
    "electric_ground_state-18": _ground_state(u.LatticeSpec(2, 5), 2),
    "circuit_unitary-8": _unitary(8),
    "circuit_unitary-9": _unitary(9),
}


@pytest.fixture
def reserved(monkeypatch):
    """The bytes of every reservation made while the test runs, in order."""
    log, reserve = [], u.lattice.reserve

    def spy(what, nbytes):
        log.append(nbytes)
        return reserve(what, nbytes)

    for module in (u.lattice, u.hamiltonian, u.trotter, u.simulator):
        monkeypatch.setattr(module, "reserve", spy)
    return log


@pytest.mark.parametrize("name", CALLS)
def test_reservations_cover_the_peak_and_come_first(name, reserved, monkeypatch):
    call = CALLS[name]
    peak = _peak(call)
    assert reserved and peak <= sum(reserved)
    big = next(n for n in reserved if n >= MIB)
    monkeypatch.setattr(u.lattice, "MEMORY_BUDGET", big - 1)

    def refused():
        with pytest.raises(u.ResourceLimitError, match=f"needs {big} B, over the {big - 1} B budget"):
            call()

    assert _peak(refused) < MIB


def test_a_sweep_batch_fits_the_budget(monkeypatch):
    # a budget of the shared part and two lanes: three plans run as batches of two and one
    model = _model(u.LatticeSpec(2, 4), 2, 0.5)
    plans = [u.TrotterPlan(2, 0.05, 2, u.ThetaPolicy("abs", k), u.ThetaPolicy("abs", k))
             for k in (0.0, 0.01, 0.1)]
    monkeypatch.setattr(u.lattice, "MEMORY_BUDGET", (4 + 2 * 6) * 16 << model.n_qubits)
    assert _peak(lambda: u.loschmidt_sweep(model, plans)) <= u.lattice.MEMORY_BUDGET


@pytest.mark.parametrize("copies, n, rows, width",
                         [(1, 12, 4096, 130), (6, 12, 4096, 70), (6, 12, 4096, 200),
                          (1, 20, 100, 20), (3, 18, 100, 18)])
def test_series_assembly_reserves_its_peak(copies, n, rows, width, reserved, monkeypatch):
    # embedding and merging reserve their peaks, and a low budget refuses them, named,
    # before they allocate; a sparse series on its own register is permuted densely
    rng = np.random.default_rng(copies)
    if rows == 1 << n:
        local = u.series_from_state_values(rng.normal(size=rows), n)
    else:
        masks = rng.choice(1 << n, size=rows, replace=False).tolist()
        local = u.WalshSeries(n, dict(zip(masks, rng.normal(size=rows).tolist())))
    supports = [rng.choice(width, n, replace=False).tolist() for _ in range(copies)]
    parts = u.walsh.embed_copies(local, supports, width)
    calls = {"embedding": lambda: u.walsh.embed_copies(local, supports, width),
             "merge": lambda: u.merge(parts * 2)}
    budget = u.lattice.MEMORY_BUDGET
    for name, call in calls.items():
        reserved.clear()
        peak = _peak(call)
        assert reserved and peak <= sum(reserved)
        monkeypatch.setattr(u.lattice, "MEMORY_BUDGET", reserved[0] - 1)

        def refused():
            with pytest.raises(u.ResourceLimitError, match=f"^{name} of .* Walsh terms on {width} "
                                                           f"qubits needs {reserved[0]} B"):
                call()

        assert _peak(refused) < MIB
        monkeypatch.setattr(u.lattice, "MEMORY_BUDGET", budget)
