"""Checks of each operation's output against `reference` and method properties.

Every check raises `CheckError` on the first disagreement.  None of them
compares with a stored copy of an earlier output: each expected value is
computed here from the workload's parameters.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

# Same-quantity agreements: two computations of one number, round-off apart.
REL_TOL = 1e-9
# Rz angles of one coefficient computed two ways (|angle| <= ~10 here).
ANGLE_TOL = 1e-11
# Order 1 and order 2 survivals at theta = 0 differ only by phases.
ORDER_TOL = 1e-10
# Halving dt divides the second-order survival error by about four.
RATIO_BAND = (3.5, 4.5)
# The original and weaved bases digitize differently; their ground-state
# plaquettes agree to a few hundredths on the 2x2, n_q = 3 lattice.
BASIS_TOL = 0.05


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def table(text: str) -> tuple[dict, list[dict]]:
    """(meta, rows as dicts) of a `--format json` table."""
    data = json.loads(text)
    return data["meta"], [dict(zip(data["columns"], row)) for row in data["rows"]]


# ---------------------------------------------------------------------------
# gate counts


def counts_match(rows, key, own_series, theta_of) -> None:
    """Each row's (rz, cnot) equals the sequency count of its own series."""
    for row in rows:
        series, theta = own_series(row), theta_of(row)
        rz, cx = ref.sequency_counts(series, theta)
        require(
            (row["rz"], row["cnot"]) == (rz, cx),
            f"{key}={row[key]}: program counts {row['rz']} Rz / {row['cnot']} CNOT, "
            f"reference {rz} / {cx}",
        )


def monotone_counts(rows, key) -> None:
    """Counts never increase as the cutoff in column ``key`` rises."""
    ordered = sorted(rows, key=lambda r: r[key])
    for lo, hi in zip(ordered, ordered[1:]):
        require(
            hi["rz"] <= lo["rz"] and hi["cnot"] <= lo["cnot"],
            f"counts rise from cutoff {lo[key]} to {hi[key]}",
        )


def maximal_series(n_p: int, n_q: int, g: float, dt: float) -> dict[int, float]:
    """-dt * (-1/g^2) cos(sum_p B_p), original compact grids capped at pi."""
    grid = ref.field_grid(min(ref.free_half_width(g, n_q), math.pi), n_q)
    arg = sum(ref.over_register([grid] * n_p, n_q))
    return ref.dense_series(dt / g**2 * np.cos(arg))


def check_maximal(text, *, n_q, g, dt, theta):
    _, rows = table(text)
    require([r["np"] for r in rows] == list(range(2, 7)), "maximal sweep rows")
    counts_match(rows, "np", lambda r: maximal_series(r["np"], n_q, g, dt), lambda r: theta)


def check_weaved_magnetic(text, *, g, dt, theta):
    _, rows = table(text)
    require([r["nq"] for r in rows] == list(range(1, 6)), "weaved sweep rows")

    def own(row):
        lat = ref.Lattice(2, 2, row["nq"], g, "compact", "weaved")
        return ref.dense_series(-dt * lat.magnetic_diagonal())

    counts_match(rows, "nq", own, lambda r: theta)


def check_quadratic_counts(text, *, kind, n_x, n_y, n_q, g, dt, formulation):
    """Cutoff sweep of an electric or non-compact magnetic factor, any width."""
    _, rows = table(text)
    series = ref.Lattice(n_x, n_y, n_q, g, formulation).quadratic_series(kind, -dt)
    counts_match(rows, "theta", lambda r: series, lambda r: r["theta"])
    monotone_counts(rows, "theta")


def check_l1(text, *, g, n_qs, limit):
    _, rows = table(text)
    expected = [(q, p) for q in n_qs for p in range(1, limit // q + 1)]
    require([(r["n_q"], r["n_p"]) for r in rows] == expected, "l1 rows")
    for row in rows:
        n_q, n_p = row["n_q"], row["n_p"]
        grid = ref.field_grid(min(ref.free_half_width(g, n_q), math.pi), n_q)
        a = ref.walsh_coefficients(np.cos(sum(ref.over_register([grid] * n_p, n_q))))
        own = float(np.abs(a).sum())
        require(close(row["l1_norm"], own), f"l1 n_q={n_q} n_p={n_p}: {row['l1_norm']} vs {own}")


def check_product_scaling(text, *, n_q, np_max, g):
    """The fitted polynomials reproduce the reference CNOT counts at every n_p."""
    meta, rows = table(text)
    grid = ref.field_grid(min(ref.free_half_width(g, n_q), math.pi), n_q)
    single = np.sort(np.abs(ref.walsh_coefficients(np.cos(grid))))[::-1]
    require(close(meta["config"]["a2"], float(single[1])), "product-scaling a2")
    require(len(rows) == 37, "product-scaling rows")
    for n_p in range(1, np_max + 1):
        joint = np.prod(ref.over_register([np.cos(grid)] * n_p, n_q), axis=0)
        series = ref.dense_series(joint)
        order = ref.sequency_order(series)
        for row in rows:
            theta = row["theta_min"]
            _, cx = ref.sequency_counts(series, theta, order)
            fit = sum(row[f"b_{k}"] * n_p**k for k in range(np_max))
            require(
                abs(fit - cx) <= 1e-6 * max(1, cx),
                f"product-scaling n_p={n_p} theta={theta}: fit gives {fit}, reference {cx}",
            )


# ---------------------------------------------------------------------------
# Trotter-step circuits


def step_factors(lat: ref.Lattice, order: int, dt: float):
    """Own (electric, magnetic) step-factor series, as `trotter` scales them."""
    scale_e = -dt / 2.0 if order == 2 else -dt
    electric = lat.quadratic_series("electric", scale_e)
    if lat.formulation == "compact":
        magnetic = ref.dense_series(-dt * lat.magnetic_diagonal())
    else:
        magnetic = lat.quadratic_series("magnetic", -dt)
    return electric, magnetic


def step_counts(lat, order, dt, theta) -> tuple[int, int]:
    e, b = step_factors(lat, order, dt)
    (rz_e, cx_e), (rz_b, cx_b) = ref.sequency_counts(e, theta), ref.sequency_counts(b, theta)
    n_e = 2 if order == 2 else 1
    return n_e * rz_e + rz_b, n_e * cx_e + cx_b


def check_step_circuit(circuit, recomputed, *, lat: ref.Lattice, order, dt, theta):
    """A read-back step against the program's own step and the reference.

    The read-back circuit equals the synthesized one gate for gate, with
    bit-identical angles and global phase.  Its Rz angles, in placement
    order, and its gate counts follow from the reference series; the
    Fourier blocks add their closed-form H / cu1 / swap counts.
    """
    require(circuit.width == lat.n, f"register width {circuit.width} != {lat.n}")
    require(circuit.gates == recomputed.gates, "read-back gates differ from the synthesized step")
    require(circuit.global_phase == recomputed.global_phase, "read-back global phase differs")
    e, b = step_factors(lat, order, dt)
    electric, magnetic = ref.sequency_angles(e, theta), ref.sequency_angles(b, theta)
    # order 1 places U_B then U_E; order 2 places U_E(dt/2) U_B U_E(dt/2)
    angles = magnetic + electric if order == 1 else electric + magnetic + electric
    placed = [g.angle for g in circuit.gates if g.name == "rz"]
    require(len(placed) == len(angles), f"{len(placed)} Rz gates, reference {len(angles)}")
    worst = max((abs(x - y) for x, y in zip(placed, angles)), default=0.0)
    require(worst <= ANGLE_TOL, f"Rz angle off the reference by {worst:.3e}")
    require(all(abs(x) >= theta for x in placed), "an Rz angle below the cutoff survived")
    n_e = 2 if order == 2 else 1
    phase = n_e * e.get(0, 0.0) + b.get(0, 0.0)
    require(close(circuit.global_phase, phase), f"global phase {circuit.global_phase} vs {phase}")
    counts = {"rz": 0, "cx": 0, "h": 0, "cu1": 0, "swap": 0}
    for gate in circuit.gates:
        counts[gate.name] += 1
    want = ref.fourier_gate_counts(lat.n_p, lat.n_q, 2 * n_e)
    want["rz"], want["cx"] = step_counts(lat, order, dt, theta)
    require(counts == want, f"gate counts {counts}, reference {want}")


def check_step_sweep(text, *, lat, order, dt):
    _, rows = table(text)
    for row in rows:
        want = step_counts(lat, order, dt, row["theta"])
        require((row["rz"], row["cnot"]) == want, f"step counts at {row['theta']}: {want}")


# ---------------------------------------------------------------------------
# evolution


def check_survival(text, *, t, exact):
    """Survivals in [0, 1]; at theta = 0 the error to the exact value falls ~4x per dt halving.

    ``exact(g)`` gives the reference survival at time ``t`` for coupling g.
    """
    _, rows = table(text)
    for row in rows:
        s = row["survival"]
        require(0.0 <= s <= 1.0, f"survival {s} outside [0, 1]")
    for g in sorted({row["g"] for row in rows}):
        exact_rows = sorted(
            (r for r in rows if r["g"] == g and r["theta_min"] == 0.0), key=lambda r: -r["dt"]
        )
        require(len(exact_rows) >= 3, f"need three theta = 0 step sizes at g={g}")
        errors = [abs(r["survival"] - exact(g)) for r in exact_rows]
        for (a, b), (ra, rb) in zip(zip(errors, errors[1:]), zip(exact_rows, exact_rows[1:])):
            require(ra["dt"] == 2 * rb["dt"], "step sizes must halve")
            ratio = a / b if b > 0 else math.inf
            require(
                RATIO_BAND[0] <= ratio <= RATIO_BAND[1],
                f"g={g}: error ratio {ratio:.3f} from dt={ra['dt']} to {rb['dt']}",
            )


def check_orders_agree(text_1, text_2):
    """At theta = 0 both splittings give the same survival of the electric ground state."""
    _, rows_1 = table(text_1)
    _, rows_2 = table(text_2)
    require(len(rows_1) == len(rows_2), "order sweeps differ in size")
    for a, b in zip(rows_1, rows_2):
        require((a["g"], a["dt"], a["theta_min"]) == (b["g"], b["dt"], b["theta_min"]), "row mismatch")
        if a["theta_min"] == 0.0:
            diff = abs(a["survival"] - b["survival"])
            require(diff <= ORDER_TOL, f"orders 1 and 2 differ by {diff:.3e} at theta = 0")


# ---------------------------------------------------------------------------
# dense spectra


def check_spectrum(text, *, n_x, n_y, n_qs, g, levels=10):
    """Energies equal the reference dense H's; their error to the normal modes falls with n_q."""
    _, rows = table(text)
    modes = ref.mode_energies(n_x, n_y, levels)
    mean_errors = []
    for n_q in n_qs:
        mine = [r for r in rows if r["n_q"] == n_q]
        require([r["level"] for r in mine] == list(range(levels)), f"levels at n_q={n_q}")
        own = np.linalg.eigvalsh(ref.Lattice(n_x, n_y, n_q, g, "non-compact").hamiltonian())
        for r in mine:
            k = r["level"]
            require(close(r["reference"], modes[k]), f"mode energy {k}: {r['reference']} vs {modes[k]}")
            require(close(r["energy"], own[k]), f"n_q={n_q} level {k}: {r['energy']} vs {own[k]}")
        mean_errors.append(np.mean([abs(r["energy"] - modes[r["level"]]) / modes[r["level"]] for r in mine]))
    require(
        all(a > b for a, b in zip(mean_errors, mean_errors[1:])),
        f"relative error does not fall with n_q: {mean_errors}",
    )


def check_plaquette(text, *, n_q):
    _, rows = table(text)
    for row in rows:
        g, orig, weav = row["g"], row["plaquette_original"], row["plaquette_weaved"]
        for value, basis in ((orig, "original"), (weav, "weaved")):
            require(0.0 <= value <= 1.0, f"plaquette {value} outside [0, 1]")
            own = ref.Lattice(2, 2, n_q, g, "compact", basis).plaquette()
            require(close(value, own), f"{basis} plaquette at g={g}: {value} vs {own}")
        require(abs(orig - weav) <= BASIS_TOL, f"bases differ by {abs(orig - weav):.3f} at g={g}")
        require(close(row["ratio"], weav / orig), "plaquette ratio")
    for key in ("plaquette_original", "plaquette_weaved"):
        values = [r[key] for r in sorted(rows, key=lambda r: r["g"])]
        require(all(a <= b for a, b in zip(values, values[1:])), f"{key} decreases with g")


def check_error_budget(budget, *, lat: ref.Lattice, dt, steps, theta):
    """alpha is ||i[H_E, H_B]||; drop counts and the bound follow from the reference."""
    alpha = lat.commutator_norm()
    require(close(budget.alpha, alpha, 1e-8), f"alpha {budget.alpha} vs power iteration {alpha}")
    e, b = step_factors(lat, 1, dt)
    drops = [sum(1 for m, c in s.items() if m and abs(c) < theta / 2.0) for s in (e, b)]
    require(
        (round(budget.c_e * dt), round(budget.c_b * dt)) == tuple(drops),
        f"drop counts {budget.c_e * dt}, {budget.c_b * dt} vs {drops}",
    )
    t = steps * dt
    bound = budget.alpha * t * dt + (drops[0] + drops[1]) / dt * theta * t
    require(close(budget.bound, bound), f"bound {budget.bound} vs {bound}")
