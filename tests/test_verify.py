"""Verification-suite orchestration tests."""

import dataclasses
import json
import math
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from hankellab import DomainError, GridError, make_grid, op_norm, run_suite
from hankellab import discretize as dz
from hankellab import linalg, specfun, verify
from hankellab.kernels import kernel_L
from hankellab.quadrature import OperatorMatrix, UpperStrips
from hankellab.verify import _GridPieces, _residual_matrix

SHORT_LADDER = [(6.0, 200), (8.0, 400)]
DEFAULT_LADDER = [(6.0, 200), (8.0, 400), (10.0, 800)]
LARGE_LADDER = [(12.0, 1600), (14.0, 2400)]
# the shared operators of a ladder step (verify._GridPieces)
PIECES = {"A", "L", "Lr", "quarter_0", "quarter_inf", "weighted"}
FAMILY = (2.0, 1.0, 1.0, 2.0)


def _record_operands(monkeypatch):
    """(exact, amax): counters that a run of the suite fills with one entry
    per operand it hands to singular_values, op_norm or sym_eigen.  exact
    counts (solver, whether the array behind the operand is exactly
    symmetric): an array stands for itself, upper strips for the array that
    UpperStrips.of took them from, and a map partial(np.matmul, S) for S;
    any other map, C1's window, counts as (solver, None).  amax counts
    whether the strips' max|entry| is that of the array behind them."""
    exact, amax, behind = Counter(), Counter(), {}
    of = UpperStrips.of

    def recorded_of(cls, A, top):
        P = of(A, top)
        behind[id(P)] = (P, A)  # P is kept, so its id is not reused
        return P

    monkeypatch.setattr(UpperStrips, "of", classmethod(recorded_of))
    for name in ("singular_values", "op_norm", "sym_eigen"):

        def recorded(M, *args, _name=name, _fn=getattr(verify, name)):
            if isinstance(M, UpperStrips):
                S = behind[id(M)][1]
                amax[M.amax == np.abs(S).max()] += 1
            elif isinstance(M, partial) and M.func is np.matmul:
                S = M.args[0]
            else:
                S = None if callable(M) else np.asarray(M)
            exact[_name, None if S is None else bool(np.array_equal(S, S.T))] += 1
            return _fn(M, *args)

        monkeypatch.setattr(verify, name, recorded)
    return exact, amax


@pytest.fixture(scope="module")
def full_suite_half():
    """Every check on the default ladder at alpha = 0.5."""
    return run_suite(0.5, DEFAULT_LADDER)


@pytest.fixture(scope="module")
def short_suite_family():
    """Every check on the short ladder at alpha = 0.5 for rational(2,1,1,2)."""
    return run_suite(0.5, SHORT_LADDER, family=FAMILY)


class TestRunSuite:
    def test_exact_similarity_single_step(self):
        rep = run_suite(0.0, [(6.0, 200)], checks=["C2"])
        assert rep.verdict == "pass"
        assert [c.name for c in rep.checks] == ["C2"]

    def test_factorisation_ladder_decreasing(self):
        rep = run_suite(0.0, SHORT_LADDER, checks=["C1"])
        assert rep.verdict == "pass"
        resids = [m["residual"] for m in rep.checks[0].metrics]
        assert resids[1] < resids[0]
        # the same-grid square is recorded as leakage and stays O(1)
        leaks = [m["window_leakage"] for m in rep.checks[0].metrics]
        assert all(l > 0.1 for l in leaks)

    def test_single_coarse_step_cap_only(self):
        rep = run_suite(0.0, [(4.0, 50)], checks=["C1"])
        assert rep.verdict in ("pass", "fail")  # deterministic either way
        again = run_suite(0.0, [(4.0, 50)], checks=["C1"])
        assert rep.as_dict() == again.as_dict()

    def test_full_subset_pass(self):
        rep = run_suite(0.5, SHORT_LADDER, checks=["C2", "C3", "C5"])
        assert rep.verdict == "pass"
        names = [c.name for c in rep.checks]
        assert names == ["C2", "C3", "C5"]

    def test_c6_passes_on_default_ladder_at_half(self):
        # the cross block at (10, 800) decays to rounding level; singular
        # values less accurate than eps * sigma_1 read that tail as slow decay
        rep = run_suite(0.5, [(6.0, 200), (8.0, 400), (10.0, 800)], checks=["C6"])
        assert rep.verdict == "pass"

    def test_report_deterministic(self):
        r1 = run_suite(0.0, [(6.0, 200)], checks=["C2", "C5", "C6"])
        r2 = run_suite(0.0, [(6.0, 200)], checks=["C2", "C5", "C6"])
        assert json.dumps(r1.as_dict(), sort_keys=True) == json.dumps(
            r2.as_dict(), sort_keys=True
        )

    def test_family_parameter_flows_to_c7(self):
        rep = run_suite(0.0, [(6.0, 200)], checks=["C7"], family=(1.0, 0.0, 1.0, 1.0))
        assert rep.verdict == "pass"
        assert rep.checks[0].metrics[0]["nuclear"] > 0.0

    def test_anchor_strings_present(self):
        rep = run_suite(0.0, [(6.0, 200)], checks=["C4"])
        assert rep.checks[0].anchor
        payload = rep.as_dict()
        assert set(payload) == {"checks", "verdict"}
        assert set(payload["checks"][0]) == {"name", "anchor", "grids", "metrics", "verdict", "rule"}

    def test_each_operator_assembled_once_per_step(self, monkeypatch):
        counts = Counter()
        names = (
            "assemble_A",
            "assemble_L",
            "assemble_wHa",
            "phi0_and_split_defect",
            "assemble_L_rect",
            "operator_square",
            "composed_block",
            "subtract_composed_block",
            "assemble_model_split",
        )
        for name in names:

            def counted(*args, _fn=getattr(dz, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(dz, name, counted)
        rep = run_suite(0.0, SHORT_LADDER, family=(1.0, -1.0, 1.0, 1.0))
        assert [c.anchor for c in rep.checks].count("(check aborted)") == 0
        steps = len(SHORT_LADDER)
        assert {name: counts[name] for name in names} == {
            "assemble_A": steps,
            "assemble_L": steps,
            "assemble_wHa": steps,
            "phi0_and_split_defect": steps,
            # one widened factor per step, a view of its 3N - 1 values, and
            # one more per C4 grid
            "assemble_L_rect": steps + len(verify._HS_GRIDS),
            "operator_square": steps,  # C1's widened square
            # the two quarters for C7 and C8; no whole block
            "composed_block": 2 * steps,
            "subtract_composed_block": steps,  # C3's L 1_inf L
            # no H(phi_inf) matrix
            "assemble_model_split": 0,
        }

    def test_step_pieces_table_names_what_each_check_reads(self, monkeypatch):
        reads, running = {}, []

        class Recorded(_GridPieces):
            def __getattribute__(self, name):
                if name in PIECES and running:
                    reads.setdefault(running[-1], set()).add(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(verify, "_GridPieces", Recorded)
        for name in verify._STEP_PIECES:

            def check(alpha, p, _fn=getattr(verify, f"_check_{name.lower()}"), _name=name):
                running.append(_name)
                try:
                    return _fn(alpha, p)
                finally:
                    running.pop()

            monkeypatch.setattr(verify, f"_check_{name.lower()}", check)
        rep = run_suite(0.5, SHORT_LADDER, family=(2.0, 1.0, 1.0, 2.0))
        assert [c.anchor for c in rep.checks].count("(check aborted)") == 0
        assert [c.name for c in rep.checks] == list(verify.CHECK_NAMES)
        assert reads == {name: set(pieces) for name, pieces in verify._STEP_PIECES.items()}

    @pytest.mark.parametrize("abort", [None, "C6"])
    def test_each_piece_freed_after_its_last_check(self, monkeypatch, abort):
        # the pieces alive as each check starts; an aborted check frees its
        # pieces too, and on the next step it no longer runs, so L goes after
        # C5.  C1 drops the widened square itself, C8 drops A once the model
        # cloud is solved and composes the quarters, and C7 drops the
        # weighted matrix, in which it forms its residual
        alive, seen = [], []
        for name in verify._STEP_PIECES:

            def check(alpha, p, _fn=getattr(verify, f"_check_{name.lower()}"), _name=name):
                alive.append((_name, set(p.__dict__) & PIECES))
                seen.append(p)
                row = _fn(alpha, p)
                if _name == abort:
                    raise RuntimeError("injected")
                return row

            monkeypatch.setattr(verify, f"_check_{name.lower()}", check)
        rep = run_suite(0.5, SHORT_LADDER, family=(2.0, 1.0, 1.0, 2.0))
        step = [
            ("C1", set()),
            ("C5", {"A", "L", "Lr"}),
            ("C6", {"A", "L", "Lr"}),
            ("C3", {"A", "Lr"}),
            ("C2", {"A", "Lr"}),
            ("C8", {"A", "Lr"}),
            ("C7", {"quarter_0", "quarter_inf", "weighted"}),
        ]
        again = [item for item in step if item[0] != abort]
        assert alive == step + again
        assert all(not set(p.__dict__) & PIECES for p in seen)
        aborted = [c.name for c in rep.checks if c.anchor == "(check aborted)"]
        assert aborted == ([abort] if abort else [])

    def test_step_memory(self, traced_peak):
        # no whole composed block past C1, and at most two N x N matrices at
        # once (C1: the widened square and A, then A and L; C6 drops L
        # before the cross block's solve; C3: A and H(phi0)), plus tiles,
        # Lanczos vectors and the quarter-size buffers of a check: 2.27 N^2
        # doubles measured, in C5 (2.55 when C1 composed two blocks by
        # products and C6 held L to its end), so a margin of 0.13 N^2
        N = 1600
        _, peak = traced_peak(lambda: run_suite(0.5, [(12.0, N)], family=FAMILY))
        assert peak <= 2.4 * 8 * N**2

    def test_heap_trimmed_after_each_step(self, monkeypatch):
        # the freed heap of one step is handed back before the next step's
        # operators are built (where the C library has malloc_trim)
        calls = []
        monkeypatch.setattr(verify, "_trim_heap", lambda: calls.append(1))
        run_suite(0.5, SHORT_LADDER, checks=["C2"])
        assert len(calls) == len(SHORT_LADDER)

    def test_c5_memory_stays_at_quarter_size(self, traced_peak):
        # with the step's other operators alive, C5 holds one quarter-size
        # buffer for both sides and subtracts a view of the Hankel values
        N = 1600
        p = _GridPieces(0.5, make_grid(12.0, N), FAMILY)
        p.A, p.L, p.Lr  # the bound is on C5's own temporaries
        row, peak = traced_peak(lambda: verify._check_c5(0.5, p))
        assert verify._CHECKS["C5"][2]([row])
        assert peak <= 0.3 * 8 * N**2

    @pytest.mark.parametrize("name", ["C1", "C3", "C7", "C8"])
    def test_shared_blocks_give_the_same_rows_alone(self, name, full_suite_half):
        # the blocks are built by whichever of these checks runs first
        alone = run_suite(0.5, DEFAULT_LADDER, checks=[name]).checks[0]
        (full,) = [c for c in full_suite_half.checks if c.name == name]
        assert alone.metrics == full.metrics

    @pytest.mark.parametrize("name", verify.CHECK_NAMES)
    def test_one_check_alone_matches_the_full_suite(self, name, short_suite_family):
        # the quarters are composed by whichever of C7 and C8 runs first,
        # and C1 builds both blocks whatever else runs
        alone = run_suite(0.5, SHORT_LADDER, checks=[name], family=FAMILY).checks[0]
        (full,) = [c for c in short_suite_family.checks if c.name == name]
        assert alone.verdict == full.verdict
        assert json.dumps(alone.metrics) == json.dumps(full.metrics)

    @pytest.mark.parametrize("route", ["whole", "alone"])
    def test_pieces_have_the_bits_of_the_whole_blocks(self, route):
        # "whole": the widened square comes first, with the bits of
        # operator_square, and within rounding of the sum of the two whole
        # blocks: each of the three is within (m / 2 + 2 N) eps of its exact
        # Gram matrix (m = N for a block, 2N for the square; see
        # tests/test_discretize.py), and the blocks' largest entries are at
        # most the square's.  "alone": the quarters come with no widened
        # square.  Either way each quarter is its own Gram matrix
        # (tests/test_discretize.py holds it to the whole block's quarter),
        # and no whole block is kept
        for alpha in (-0.25, 0.0, 0.5, 2.0):
            for R, N in ((8.0, 400), (10.0, 800)):
                grid = make_grid(R, N)
                Lr = dz.assemble_L_rect(alpha, grid)
                p = _GridPieces(alpha, grid, FAMILY)
                if route == "whole":
                    wide = dz.operator_square(p.Lr).entries  # as C1 forms it
                    assert np.array_equal(wide, dz.operator_square(Lr).entries)
                    B_inf, B_0 = (dz.composed_block(Lr, side).entries for side in ("infinity", "zero"))
                    bound = (2 * (N / 2 + 2 * N) + (N + 2 * N) + 1) * np.finfo(float).eps
                    assert np.abs(wide - (B_inf + B_0)).max() <= bound * np.abs(wide).max()
                for quarter, inner, outer in (
                    (p.quarter_inf, "infinity", "zero"),
                    (p.quarter_0, "zero", "infinity"),
                ):
                    assert np.array_equal(quarter.entries, dz.composed_block(Lr, inner, outer).entries)
                assert set(p.__dict__) & PIECES == {"Lr", "quarter_0", "quarter_inf"}

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_c1_residual_matches_widened_square(self, alpha):
        rows = run_suite(alpha, DEFAULT_LADDER, checks=["C1"]).checks[0].metrics
        for (R, N), row in zip(DEFAULT_LADDER, rows):
            grid = make_grid(R, N)
            A = dz.assemble_A(alpha, grid).entries
            sq = dz.operator_square(dz.assemble_L_rect(alpha, grid)).entries
            assert abs(row["residual"] - op_norm(sq - A) / op_norm(A)) <= 1e-14

    @pytest.mark.parametrize(
        "alpha,R,N",
        [(a, R, N) for a in (-0.25, 0.0, 0.5, 2.0) for R, N in ((6.0, 200), (10.0, 800), (14.0, 2400))]
        # a fine step, where the residual c h^2 is smallest
        + [(0.0, 4.0, 2400)],
    )
    def test_c3_residual_matches_the_whole_block(self, alpha, R, N):
        # oracle: the residual from L 1_inf L as a whole block; C3 forms the
        # same difference in place, so it has its bits
        p = _GridPieces(alpha, make_grid(R, N), FAMILY)
        row = verify._check_c3(alpha, p)
        H0, _ = dz.phi0_and_split_defect(alpha, p.grid, p.A.entries)
        expected = op_norm(H0 - dz.composed_block(p.Lr, "infinity").entries)
        assert verify._CHECKS["C3"][2]([row])
        assert row["composition_residual"] == expected

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    def test_c4_row_norms_match_the_uL_product(self, alpha):
        # oracle: the HS norms from the full N x 2N products u L, of a factor
        # evaluated entry by entry here
        rows = verify._check_c4(alpha)

        def factor(R, N):
            grid = make_grid(R, N)
            wide = dz.widened_grid(grid)
            K = kernel_L(alpha)(grid.nodes[:, np.newaxis], wide.nodes[np.newaxis, :])
            entries = K * np.sqrt(np.outer(grid.weights, wide.weights))
            return OperatorMatrix(grid=grid, entries=entries, provenance="L", col_grid=wide)

        factors = [factor(R, N) for R, N in verify._HS_GRIDS]
        hs_sq = lambda u, Lr: float((dz.assemble_uL(u, Lr).entries ** 2).sum())
        for row, (label, u) in zip(rows, verify._HS_BATTERY):
            assert row["u"] == label
            assert row["hs_sq"] == pytest.approx(hs_sq(u, factors[0]), rel=1e-14)
        witness = [math.sqrt(hs_sq(np.ones_like, Lr)) for Lr in factors[1:]]
        assert [rows[-1]["hs_R4"], rows[-1]["hs_R8"]] == pytest.approx(witness, rel=1e-14)
        assert verify._CHECKS["C4"][2](rows)

    def test_c4_builds_no_factor(self, traced_peak):
        # the row norms come from a view of each factor's 3N - 1 antidiagonal
        # values: O(N) memory, where one 1200 x 2400 factor takes 23 MB
        _, peak = traced_peak(lambda: verify._check_c4(0.5))
        N = max(N for _, N in verify._HS_GRIDS)
        assert peak <= 16 * (3 * N) * 8

    def test_c6_sigma_ratio_reads_zero_below_the_rank_floor(self):
        # L_00 has numerical rank 8: its tenth singular value is rounding noise
        row = run_suite(0.0, [(6.0, 200)], checks=["C6"]).checks[0].metrics[0]
        grid = make_grid(6.0, 200)
        L, A = dz.assemble_L(0.0, grid).entries, dz.assemble_A(0.0, grid).entries
        m0, mi = grid.side("zero"), grid.side("infinity")
        for label, block in (("L_00", L[m0, m0]), ("L_ii", L[mi, mi]), ("A_0i", A[m0, mi])):
            sv = scipy.linalg.svdvals(block)
            floor = max(block.shape) * np.finfo(float).eps * sv[0]
            ratio = row[label]["sigma_ratio_10_1"]
            if label == "L_00":
                assert sv[9] <= floor and ratio == 0.0
            else:
                assert sv[9] > floor and ratio == pytest.approx(sv[9] / sv[0], rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("R,N", DEFAULT_LADDER + LARGE_LADDER)
    def test_c6_cross_block_takes_the_symmetric_route(self, R, N, alpha):
        # inversion symmetry makes the cross block B with reversed columns a
        # symmetric Hankel matrix, to rounding; C6 solves its symmetric part,
        # exactly symmetric with the bits 1/2 b_ij + 1/2 b_ji
        grid = make_grid(R, N)
        A = dz.assemble_A(alpha, grid).entries
        B = A[grid.side("zero"), grid.side("infinity")][:, ::-1]
        assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
        S = verify._cross_block(A, grid)
        assert np.array_equal(S, S.T)
        assert np.array_equal(S, 0.5 * B + 0.5 * B.T)

    def test_every_matrix_solved_is_symmetric(self, monkeypatch):
        # one singular-value route: the solvers take the suite's matrices
        # as upper strips or maps, unscanned, so the array behind each is
        # shown exactly symmetric here, and the strips' max|entry| exact
        exact, amax = _record_operands(monkeypatch)
        rep = run_suite(0.5, SHORT_LADDER, family=FAMILY)
        assert [c.anchor for c in rep.checks].count("(check aborted)") == 0
        steps = len(SHORT_LADDER)
        clouds = sum(len(row) for row in next(c for c in rep.checks if c.name == "C8").metrics)
        # C1's model norm and wide residual, C3's residual, C6's three
        # blocks, C7's residual; C1's window hands op_norm another map
        assert exact == {
            ("op_norm", True): 3 * steps,
            ("op_norm", None): steps,
            ("singular_values", True): 4 * steps,
            ("sym_eigen", True): clouds,
        }
        assert amax == {True: 4 * steps + clouds}

    @pytest.mark.parametrize("builder", ["cross_block", "residual"])
    def test_symmetry_spy_catches_an_asymmetric_builder(self, monkeypatch, builder):
        # the solvers would take these from their upper strips without
        # notice: C6's cross block B = A_0,inf J not symmetrised (symmetric
        # to rounding only), or C7's residual with one entry one ulp off
        if builder == "cross_block":
            check = "C6"
            monkeypatch.setattr(
                verify,
                "_cross_block",
                lambda A, grid: A[grid.side("zero"), grid.side("infinity")][:, ::-1].copy(),
            )
        else:
            check, residual = "C7", verify._residual_matrix

            def nudged(p):
                T = residual(p)
                T[0, 1] = math.nextafter(T[0, 1], math.inf)
                return T

            monkeypatch.setattr(verify, "_residual_matrix", nudged)
        exact, _ = _record_operands(monkeypatch)
        rep = run_suite(0.5, SHORT_LADDER, checks=[check], family=FAMILY)
        assert rep.checks[0].anchor != "(check aborted)"
        assert exact["singular_values", False] == len(SHORT_LADDER)

    def test_suite_makes_no_symmetry_scan(self, monkeypatch):
        scans = []
        asymmetry = linalg._asymmetry
        monkeypatch.setattr(linalg, "_asymmetry", lambda A: scans.append(A.shape) or asymmetry(A))
        rep = run_suite(0.5, SHORT_LADDER, family=FAMILY)
        assert [c.anchor for c in rep.checks].count("(check aborted)") == 0
        assert scans == []

    def test_nan_in_a_weighted_block_aborts_c7_and_c8_before_their_solves(self, monkeypatch):
        # planted after the walk, which checks every kernel value: the
        # weighted blocks are formed from checked pieces, and the one read
        # of max|entry| before each solve rejects the NaN
        weighted_block = verify._weighted_block

        def planted(p, side):
            wb = weighted_block(p, side)
            wb[3, 5] = math.nan
            return wb

        monkeypatch.setattr(verify, "_weighted_block", planted)
        rep = run_suite(0.5, [(6.0, 200)], family=FAMILY)
        checks = {c.name: c for c in rep.checks}
        for name in ("C7", "C8"):
            assert checks[name].anchor == "(check aborted)"
            assert checks[name].metrics == ({"error": "EigenSolverError: matrix has non-finite entries"},)
        assert all(checks[name].verdict == "pass" for name in ("C1", "C2", "C3", "C4", "C5", "C6"))

    def test_nan_in_a_aborts_c1(self, monkeypatch):
        # C1's norms run Lanczos on the map x -> A x, whose first product
        # is not finite
        assemble = dz.assemble_A

        def planted(alpha, grid):
            M = assemble(alpha, grid)
            M.entries.flags.writeable = True
            M.entries[3, 5] = math.nan
            return M

        monkeypatch.setattr(dz, "assemble_A", planted)
        c1, c5 = run_suite(0.5, [(6.0, 200)], checks=["C1", "C5"]).checks
        assert c1.anchor == "(check aborted)" and c1.verdict == "fail"
        ((key, error),) = c1.metrics[0].items()
        assert key == "error" and error.startswith("EigenSolverError") and "non-finite" in error
        assert c5.verdict == "pass"

    @pytest.mark.parametrize(
        "family,skipped",
        [((1.0, 1.0, 0.0, 1.0), "weighted_block_zero"), ((0.0, 0.0, 1.0, 1.0), "weighted_hankel")],
    )
    def test_c8_skips_a_cloud_with_no_predicted_interval(self, family, skipped):
        # b0 = 0 predicts no interval for the zero-side weighted block, and
        # a0 = a_inf = 0 none for the weighted Hankel operator: C8 solves no
        # such cloud and reports no row for it, and every other cloud passes
        (c8,) = run_suite(0.5, SHORT_LADDER, checks=["C8"], family=family).checks
        assert c8.verdict == "pass"
        for row in c8.metrics:
            assert skipped not in row and "model" in row and len(row) == 5

    def test_failed_shared_assembly_aborts_only_its_checks(self, monkeypatch):
        def broken(alpha, grid):
            raise RuntimeError("assembly failed")

        monkeypatch.setattr(dz, "assemble_A", broken)
        rep = run_suite(0.0, SHORT_LADDER)
        checks = {c.name: c for c in rep.checks}
        assert list(checks) == ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]
        for name in ("C1", "C2", "C3", "C6", "C8"):
            assert checks[name].anchor == "(check aborted)"
            assert checks[name].verdict == "fail"
            assert checks[name].metrics == ({"error": "RuntimeError: assembly failed"},)
        for name in ("C4", "C5", "C7"):
            assert checks[name].verdict == "pass"
        assert rep.verdict == "fail"

    def test_one_step_alive_at_a_time(self, monkeypatch):
        built, alive_at_build = [], []
        init = _GridPieces.__init__

        def tracked(self, *args):
            alive_at_build.append([ref() is not None for ref in built])
            built.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(_GridPieces, "__init__", tracked)
        rep = run_suite(0.0, [(4.0, 100)] + SHORT_LADDER, family=(1.0, -1.0, 1.0, 1.0))
        assert [c.anchor for c in rep.checks].count("(check aborted)") == 0
        assert alive_at_build == [[], [False], [False, False]]

    def test_step_check_called_once_per_step_by_name(self, monkeypatch):
        # the check is looked up by its module name at run time, so a
        # wrapper installed on the module sees every step
        steps, check = [], verify._check_c3

        def counted(alpha, p):
            steps.append((p.grid.R, p.grid.N))
            return check(alpha, p)

        monkeypatch.setattr(verify, "_check_c3", counted)
        rep = run_suite(0.0, SHORT_LADDER, checks=["C3"])
        assert rep.verdict == "pass"
        assert steps == SHORT_LADDER

    def test_check_raising_on_a_later_step_aborts_for_the_rest(self, monkeypatch):
        steps, check = [], verify._check_c2

        def fails_at_second(alpha, p):
            steps.append(p.grid.N)
            if len(steps) == 2:
                raise RuntimeError("second step")
            return check(alpha, p)

        monkeypatch.setattr(verify, "_check_c2", fails_at_second)
        rep = run_suite(0.0, [(4.0, 100)] + SHORT_LADDER, checks=["C2", "C5"])
        c2, c5 = rep.checks
        assert steps == [100, 200]
        assert c2.anchor == "(check aborted)" and c2.verdict == "fail"
        assert c2.metrics == ({"error": "RuntimeError: second step"},)
        assert c2.grids == ((4.0, 100), (6.0, 200), (8.0, 400))
        assert c5.verdict == "pass" and len(c5.metrics) == 3

    def test_rejects_bad_ladder(self):
        with pytest.raises(DomainError):
            run_suite(0.0, [])
        with pytest.raises(DomainError):
            run_suite(0.0, [(8.0, 400), (6.0, 200)])

    @pytest.mark.parametrize("step", [(6.0, 200.9), (6.0, 201), (0.0, 200), (math.inf, 200)])
    def test_rejects_bad_step(self, step):
        with pytest.raises(GridError):
            run_suite(0.0, [step])

    def test_select_checks_in_report_order(self):
        assert verify.select_checks(None) == verify.CHECK_NAMES
        assert verify.select_checks(["c5", "C2", "C5"]) == ("C2", "C5")

    def test_empty_selection_rejected(self):
        with pytest.raises(DomainError):
            verify.select_checks([])
        with pytest.raises(DomainError):
            run_suite(0.0, [(6.0, 200)], checks=())

    def test_rejects_unknown_check(self):
        with pytest.raises(DomainError):
            run_suite(0.0, [(6.0, 200)], checks=["C9"])

    def test_rejects_bad_alpha(self):
        for bad in (-0.5, math.inf):
            with pytest.raises(DomainError):
                run_suite(bad, [(6.0, 200)])


def _replace_entries(monkeypatch, name, change):
    """Make ``dz.<name>`` return its matrix with the entries ``change(entries)``."""
    assemble = getattr(dz, name)

    def faulty(*args):
        M = assemble(*args)
        return OperatorMatrix(M.grid, change(M.entries), M.provenance, M.col_grid)

    monkeypatch.setattr(dz, name, faulty)


class TestUnitaryEquivalences:
    """C2 and C5 compare the entries of two matrices under the known unitary,
    so a fault that keeps the spectrum still fails them."""

    def test_permuted_infinity_nodes_fail_c2(self, monkeypatch):
        # A_inf,inf becomes P A_inf,inf P^T: the spectrum is kept, so equal
        # eigenvalue lists would pass it
        def relabel(A):
            n = len(A) // 2
            idx = np.concatenate([np.arange(n), n + np.random.default_rng(0).permutation(n)])
            return A[np.ix_(idx, idx)]

        _replace_entries(monkeypatch, "assemble_A", relabel)
        assert run_suite(0.0, SHORT_LADDER, checks=["C2"]).verdict == "fail"

    def test_reversed_hankel_fails_c5(self, monkeypatch):
        # J H J has the spectrum of H, so equal eigenvalue lists would pass it
        _replace_entries(monkeypatch, "log_pushforward_hankel", lambda H: H[::-1, ::-1])
        assert run_suite(0.0, SHORT_LADDER, checks=["C5"]).verdict == "fail"

    def test_wrong_weight_on_one_node_fails_c2(self, monkeypatch):
        # equal eigenvalue lists reject this fault too
        make = verify.make_grid

        def one_wrong_weight(R, N):
            grid = make(R, N)
            w = grid.weights.copy()
            w[3] *= 1.0 + 1e-6
            return dataclasses.replace(grid, weights=w)

        monkeypatch.setattr(verify, "make_grid", one_wrong_weight)
        assert run_suite(0.0, SHORT_LADDER, checks=["C2"]).verdict == "fail"

    @pytest.mark.parametrize("name", ["psi_plus", "psi_minus"])
    def test_scaled_psi_fails_c5(self, monkeypatch, name):
        # equal eigenvalue lists reject this fault too
        psi = getattr(specfun, name)
        monkeypatch.setattr(dz, name, lambda alpha, t: (1.0 + 1e-6) * psi(alpha, t))
        assert run_suite(0.0, SHORT_LADDER, checks=["C5"]).verdict == "fail"

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("R,N", DEFAULT_LADDER + LARGE_LADDER)
    def test_metric_bounds_the_eigenvalue_lists(self, R, N, alpha):
        # oracle: the sorted eigenvalue lists of each pair differ by at most
        # the reported Frobenius norm (Hoffman-Wielandt) plus the
        # eigensolver's rounding
        p = _GridPieces(alpha, make_grid(R, N), (1.0, 1.0, 1.0, 1.0))
        c2 = verify._check_c2(alpha, p)
        c5 = verify._check_c5(alpha, p)
        assert verify._CHECKS["C2"][2]([c2]) and verify._CHECKS["C5"][2]([c5])
        A, L = p.A.entries, p.L.entries
        pairs = [(c2["eig_diff"], A[p.m0, p.m0], A[p.mi, p.mi])]
        for side, mask in (("zero", p.m0), ("infinity", p.mi)):
            d = dz.change_of_variables_diagonal(p.grid, side)
            block = L[mask, mask] if side == "infinity" else L[mask, mask][::-1, ::-1]
            H = dz.log_pushforward_hankel(side, alpha, p.grid).entries
            pairs.append((c5[f"eig_diff_{side}"], d[:, np.newaxis] * block * d, H))
        for bound, X, Y in pairs:
            ex, ey = scipy.linalg.eigvalsh(X), scipy.linalg.eigvalsh(Y)
            lam = max(np.abs(ex).max(), np.abs(ey).max())
            assert np.abs(ex - ey).max() <= bound + len(X) * np.finfo(float).eps * lam

    def test_no_eigen_or_singular_value_solver(self, monkeypatch):
        # comparing eigenvalue lists would take two solves per step for C2 and four for C5
        calls = Counter()
        for owner, name in (
            (verify, "sym_eigen"),
            (verify, "singular_values"),
            (verify, "op_norm"),
            (np.linalg, "eigvalsh"),
            (np.linalg, "eigh"),
            (np.linalg, "svd"),
        ):

            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        rep = run_suite(0.5, SHORT_LADDER, checks=["C2", "C5"])
        assert rep.verdict == "pass"
        assert calls == {}


class TestTwoBlockDecomposition:
    @pytest.mark.parametrize(
        "alpha,family", [(0.0, (1.0, -1.0, 1.0, 1.0)), (0.5, (2.0, 1.0, 1.0, 2.0))]
    )
    @pytest.mark.parametrize("R,N", [(6.0, 200), (10.0, 800)])
    def test_residual_matches_zero_padded_formula(self, R, N, alpha, family):
        # both terms on the whole grid through zero-padded weights
        p = _GridPieces(alpha, make_grid(R, N), family)
        a0, a_inf, _, _ = family
        WHA, v = p.weighted
        # each quarter by the product the suite takes, padded with zeros
        Lr = dz.assemble_L_rect(alpha, p.grid)
        block_inf, block_0 = np.zeros((N, N)), np.zeros((N, N))
        block_inf[p.m0, p.m0] = dz.composed_block(Lr, "infinity", "zero").entries
        block_0[p.mi, p.mi] = dz.composed_block(Lr, "zero", "infinity").entries
        v0, vi = np.zeros_like(v), np.zeros_like(v)
        v0[p.m0] = v[p.m0]
        vi[p.mi] = v[p.mi]
        term0 = np.multiply.outer(v0, v0) * block_inf
        term_inf = np.multiply.outer(vi, vi) * block_0
        expected = WHA.entries - a0 * term0 - a_inf * term_inf
        T = _residual_matrix(p)
        assert np.array_equal(T, expected)
        # formed in the weighted matrix itself, which is dropped
        assert T is WHA.entries and "weighted" not in p.__dict__

    def test_residual_memory_stays_at_quarter_size(self, traced_peak):
        p = _GridPieces(0.5, make_grid(10.0, 800), FAMILY)
        p.quarter_inf, p.quarter_0, p.weighted  # the bound is on the residual's own temporaries
        T, peak = traced_peak(lambda: _residual_matrix(p))
        quarter = T.nbytes // 4
        # one weighted block at a time and no copy of the weighted matrix:
        # 1.10 quarters measured
        assert peak <= 1.25 * quarter


def _holds(name, rows):
    """The verdict of check ``name``'s rule on the metric rows ``rows``."""
    return verify._CHECKS[name][2](rows)


up = lambda x: math.nextafter(x, math.inf)  # one ulp past an upper limit
down = lambda x: math.nextafter(x, -math.inf)  # one ulp past a lower limit

C8_LABELS = (
    "model", "block_zero", "block_infinity", "weighted_block_zero", "weighted_block_infinity", "weighted_hankel"
)


def _c8_rows(model_gaps=(0.5, 0.25), gaps=(0.5, 1.10 * 0.5), outliers=(0, 0)):
    """C8 rows of a two-step ladder: the model cloud's fills ``model_gaps``,
    every other cloud's ``gaps``, and ``outliers`` in every cloud."""
    return [
        {label: {"outliers": n, "max_gap": model if label == "model" else gap} for label in C8_LABELS}
        for model, gap, n in zip(model_gaps, gaps, outliers)
    ]


class TestRules:
    """Each check's rule on synthetic metric rows: rows at the rule's limit
    pass and rows one ulp past it fail, with no operator assembled.  The
    one-step cases are per-step bounds, which the rule alone decides."""

    def test_c1_composition_cap_and_decrease(self):
        cap = verify.COMPOSITION_CAP
        assert _holds("C1", [{"residual": cap}])
        assert not _holds("C1", [{"residual": up(cap)}])
        assert not _holds("C1", [{"residual": up(cap)}, {"residual": cap / 2}])
        assert _holds("C1", [{"residual": cap}, {"residual": down(cap)}])
        assert not _holds("C1", [{"residual": cap / 2}, {"residual": cap / 2}])

    def test_c2_bound_scales_with_the_block_max(self):
        for block_max in (0.7, 3.0, 1e-300):
            limit = verify.BLOCK_EIG_TOL * block_max
            assert _holds("C2", [{"eig_diff": limit, "block_max": block_max}])
            assert not _holds("C2", [{"eig_diff": up(limit), "block_max": block_max}])
            late = [{"eig_diff": 0.0, "block_max": 1.0}, {"eig_diff": up(limit), "block_max": block_max}]
            assert not _holds("C2", late)

    def test_c3_split_and_decrease(self):
        tol = verify.EXACT_TOL
        row = lambda split, residual: {"split_error": split, "composition_residual": residual}
        assert _holds("C3", [row(tol, 1.0), row(tol, down(1.0))])
        assert not _holds("C3", [row(up(tol), 1.0)])
        assert not _holds("C3", [row(0.0, 1.0), row(up(tol), 0.5)])
        assert not _holds("C3", [row(0.0, 1.0), row(0.0, 1.0)])

    def test_c4_battery_and_witness(self):
        tol, ratio = verify.HS_REL_TOL, verify.HS_WITNESS_RATIO
        rows = lambda errs, r: [{"rel_err": e} for e in errs] + [{"ratio": r}]
        assert _holds("C4", rows([tol, tol, tol], ratio))
        for i in range(3):
            errs = [tol, tol, tol]
            errs[i] = up(tol)
            assert not _holds("C4", rows(errs, ratio))
        assert not _holds("C4", rows([0.0, 0.0, 0.0], down(ratio)))

    def test_c5_pushforward_bound_on_each_side(self):
        tol = verify.PUSHFORWARD_TOL
        assert _holds("C5", [{"eig_diff_zero": tol, "eig_diff_infinity": tol}])
        assert not _holds("C5", [{"eig_diff_zero": up(tol), "eig_diff_infinity": 0.0}])
        assert not _holds("C5", [{"eig_diff_zero": 0.0, "eig_diff_infinity": up(tol)}])

    def test_c6_decay_class_and_cross_growth(self):
        cap = verify.NUCLEAR_GROWTH_CAP

        def rows(nuclears, slow=None):
            return [
                {
                    label: {"verdict": "polynomial" if label == slow else "super_polynomial", "nuclear": n}
                    for label in ("L_00", "L_ii", "A_0i")
                }
                for n in nuclears
            ]

        assert _holds("C6", rows([1.0, cap * 1.0]))
        assert not _holds("C6", rows([1.0, up(cap * 1.0)]))
        # growth from 0 is growth: the rule has no absolute slack
        assert not _holds("C6", rows([0.0, math.nextafter(0.0, 1.0)]))
        for label in ("L_00", "L_ii", "A_0i"):
            assert not _holds("C6", rows([1.0], slow=label))

    def test_c7_growth(self):
        cap = verify.NUCLEAR_GROWTH_CAP
        assert _holds("C7", [{"nuclear": 1.0}, {"nuclear": cap * 1.0}])
        assert not _holds("C7", [{"nuclear": 1.0}, {"nuclear": up(cap * 1.0)}])
        assert not _holds("C7", [{"nuclear": 0.0}, {"nuclear": math.nextafter(0.0, 1.0)}])
        assert _holds("C7", [{"nuclear": 0.0}, {"nuclear": 0.0}])

    def test_c8_fills(self):
        assert _holds("C8", _c8_rows())
        assert not _holds("C8", _c8_rows(gaps=(0.5, up(1.10 * 0.5))))
        assert not _holds("C8", _c8_rows(model_gaps=(0.5, 0.5)))
        # a fill of 0 may not grow: the rule has no absolute slack
        assert not _holds("C8", _c8_rows(gaps=(0.0, math.nextafter(0.0, 1.0))))
        assert _holds("C8", _c8_rows(gaps=(0.0, 0.0)))

    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize("label", [l for l in C8_LABELS if not l.startswith("weighted_block")])
    def test_c8_outlier_outside_the_weighted_blocks_fails(self, label, step):
        rows = _c8_rows()
        rows[step][label]["outliers"] = 1
        assert not _holds("C8", rows)
        assert not _holds("C8", rows[step : step + 1])

    @pytest.mark.parametrize("first", [0, 2, 4, 6])
    @pytest.mark.parametrize("label", ["weighted_block_zero", "weighted_block_infinity"])
    def test_c8_weighted_block_outliers_bounded(self, label, first):
        limit = max(first, 4)
        rows = _c8_rows()
        rows[0][label]["outliers"], rows[1][label]["outliers"] = first, limit
        assert _holds("C8", rows)
        rows[1][label]["outliers"] = limit + 1
        assert not _holds("C8", rows)
