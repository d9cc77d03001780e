"""The iterative Pluto / Pluto+ scheduling algorithm (Sections 3.2–3.8).

Level by level, one ILP per level, the scheduler searches for hyperplanes
``phi_S`` that are

* legal — eq. (2) holds for every dependence still *active* (not satisfied
  before the current band started; keeping in-band-satisfied dependences
  active is what makes the found bands fully permutable and hence tilable);
* bounded — eq. (3) ties every active dependence distance below ``u.p + w``;
* linearly independent of the hyperplanes already found, for every statement
  whose transformation is not yet full column rank;

and minimizes objective (4) (classic) or (8) (Pluto+) as a ``lexmin``.

When no hyperplane exists the current band is closed; dependences satisfied
inside it retire from the active set, and if the remaining DDG splits into
several SCCs a scalar dimension orders them (an SCC "cut", Pluto's fusion
structure).  The loop ends when every dependence is satisfied and every
statement's transformation is one-to-one.

Algorithm selection:

* ``"pluto"``   — classic trade-off: ``c_i >= 0``, ``sum c_i >= 1``,
  non-negative orthant of the orthogonal sub-space;
* ``"plutoplus"`` — the paper's contribution: ``-b <= c_i <= b`` with
  radix-encoded zero-avoidance and linear independence (one binary each) and
  the ``c_sum`` smallest-coefficient objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from repro.core.farkas import bounding_constraints, legality_constraints
from repro.core.names import (
    W_NAME,
    c0_name,
    c_name,
    csum_name,
    d_name,
    delta_name,
    deltal_name,
    u_name,
)
from repro.core.ortho import (
    pluto_independence_constraints,
    plutoplus_independence_constraints,
    plutoplus_nonzero_constraints,
)
from repro.core.transform import Band, Schedule, ScheduleRow
from repro.deps.analysis import Dependence
from repro.deps.ddg import DependenceGraph
from repro.deps.ordering import Ordering
from repro.frontend.ir import Program, Statement
from repro.ilp import ILPModel, LinearConstraint, SolveStats, lexmin
from repro.polyhedra import AffExpr
from repro.polyhedra.fourier_motzkin import normalize_row
from repro.records import Record

__all__ = ["SchedulerOptions", "SchedulerError", "PlutoScheduler", "SchedulerStats"]

DEFAULT_COEFF_BOUND = 4  # the paper's b (Section 3.3 uses b = 4)
ALGORITHMS = ("pluto", "plutoplus")
FUSE_POLICIES = ("smart", "max", "no")


class SchedulerError(RuntimeError):
    pass


@dataclass
class SchedulerOptions:
    algorithm: str = "plutoplus"          # one of ALGORITHMS
    coeff_bound: int = DEFAULT_COEFF_BOUND
    max_levels: int = 32                  # safety valve
    #: Section 3.6 smallest-coefficients objective; disabled only by the
    #: csum ablation bench.
    csum_objective: bool = True
    #: Fusion structure (Pluto's --fuse): "max" fuses as long as a common
    #: hyperplane exists; "no" distributes SCCs with a scalar dimension
    #: before every search; "smart" (default) first separates SCCs of
    #: different dimensionality (Pluto's dimensionality-based cut), then
    #: behaves like "max".
    fuse: str = "smart"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        if self.fuse not in FUSE_POLICIES:
            raise ValueError(f"unknown fusion policy {self.fuse!r}")


@dataclass
class SchedulerStats(Record):
    """Scheduler counters; JSON-shaped for suite manifests and ``--stats``."""

    ilp_solves: int = 0
    ilp_variables_max: int = 0
    hyperplanes_found: int = 0
    cuts: int = 0
    #: satisfaction queries answered by batching (identical remaining
    #: polyhedron + distance expression shared with another dependence)
    sat_batched: int = 0
    #: aggregated solver counters across every lexmin issued by this
    #: scheduler: HiGHS door entries (``lp_solves``), steps skipped
    #: (``shortcut_hits``, ``probe_hits``), model rows collapsed and
    #: skeletons reused (``dedup_rows``, ``models_reused``) and the wall
    #: time inside lexmin (``solve_seconds``, the one solver time).  Levels
    #: replayed from a skeleton build no model: ``structural_warm_start``
    #: below counts them.  ``simplex_pivots`` / ``bb_nodes`` /
    #: ``warm_starts`` read 0: HiGHS answers every solve.
    solve: SolveStats = field(default_factory=SolveStats)
    #: which scheduler was requested ("exact" | "quick" | "auto") and which
    #: path produced the final schedule ("exact" | "quick" | "fallback");
    #: when the quick-permutation heuristic was bypassed or lost,
    #: ``fallback_reason`` says why ("diamond-requested" |
    #: "no-legal-permutation" | "untilable-band")
    scheduler_mode: str = "exact"
    scheduler_path: str = "exact"
    fallback_reason: Optional[str] = None
    #: quick-path counters: candidate rows proposed, exact per-dependence
    #: legality minima computed, and wall time inside the candidate search
    quick_candidates: int = 0
    quick_validations: int = 0
    quick_seconds: float = 0.0
    #: per-statement fusion decisions of the winning schedule: statement
    #: names grouped by shared scalar (SCC-ordering) coordinates
    fusion_groups: list = field(default_factory=list)
    #: cross-request skeleton reuse (``repro.core.skeleton``): how many
    #: per-level solves were answered by replaying a recorded solution,
    #: and the request-level verdict — ``None`` (store disabled), "miss"
    #: (no prior record), "hit" (every solve replayed), or "fallback"
    #: (record existed but some level had to be solved cold)
    structural_warm_start: int = 0
    structural_path: Optional[str] = None
    #: reduction relaxation (``repro.core.reductions``): accumulation
    #: statements detected in the program and the self-dependences dropped
    #: from the legality set before scheduling.  Both stay zero unless
    #: ``PipelineOptions.parallel_reductions`` is enabled.
    reductions_detected: int = 0
    reductions_relaxed: int = 0


def _integer_row(values: list) -> tuple[int, ...] | None:
    """``values`` as a tuple of ints when every one is integral, else ``None``
    (a rational row).  Farkas rows are ints: ``Fraction`` is only built for
    a value that is not one."""
    for i, v in enumerate(values):
        if type(v) is not int:
            f = Fraction(v)
            if f.denominator != 1:
                return None
            values[i] = int(f)
    return tuple(values)


class PlutoScheduler:
    def __init__(
        self,
        program: Program,
        ddg: DependenceGraph,
        options: Optional[SchedulerOptions] = None,
        warm=None,
        rar: Sequence[Dependence] = (),
    ):
        self.program = program
        self.ddg = ddg
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()
        # RAR (read-reuse) relations: locality signal only.  Their Farkas
        # *bounding* rows join every per-band model so the lexmin objective
        # pulls read-read reuse distances down alongside the real
        # dependence distances; their legality rows are never generated, so
        # they cannot constrain which schedules are feasible.
        self.rar = list(rar)
        self._rar_bound_cache: dict[int, list] = {}
        # Cross-request replay context (repro.core.skeleton.WarmStart).
        self.warm = warm
        # Model skeletons (variables + csum + Farkas rows) keyed by the
        # active dependence set: within a band the active set is constant,
        # so only the per-level independence/avoidance rows are rebuilt.
        self._skeleton_cache: dict[tuple, tuple[ILPModel, set]] = {}
        # Which instance pairs the rows so far order; each run owns one.
        self.order = Ordering(ddg.deps)

    # -- public API -----------------------------------------------------------

    def schedule(self) -> Schedule:
        self.order = Ordering(self.ddg.deps)
        sched = Schedule(self.program)
        band_start = 0
        stuck_guard = 0

        if self.options.fuse == "smart" and self._cut_dim_based(sched):
            band_start = sched.depth
        if self.options.fuse == "no" and self._cut(sched):
            band_start = sched.depth

        while not self._done(sched):
            if sched.depth >= self.options.max_levels:
                raise SchedulerError(
                    f"exceeded {self.options.max_levels} schedule levels"
                )
            row = None
            if not sched.full_rank():
                active = self._active_deps(sched, band_start)
                row = self.find_hyperplane(sched, active)
            if row is not None:
                level = sched.depth
                sched.add_row(row)
                self._update_satisfaction(sched, level)
                self.stats.hyperplanes_found += 1
                stuck_guard = 0
                continue

            # No hyperplane: close the band (if any rows accumulated).
            if sched.depth > band_start:
                sched.bands.append(Band(band_start, sched.depth - 1))
                band_start = sched.depth
                stuck_guard = 0
                # Retrying with the shrunken active set may now succeed.
                if not sched.full_rank():
                    continue

            if self._cut(sched):
                band_start = sched.depth
                stuck_guard = 0
                continue

            stuck_guard += 1
            if stuck_guard > 1:
                raise SchedulerError(
                    f"scheduler stuck on {self.program.name}: "
                    f"{len(self.order.unsatisfied())} unsatisfied deps, "
                    f"ranks {sched.rank}"
                )

        if sched.depth > band_start:
            sched.bands.append(Band(band_start, sched.depth - 1))
        sched.finalize_order()
        return sched

    # -- pieces ------------------------------------------------------------------

    def _done(self, sched: Schedule) -> bool:
        return not self.order.unsatisfied() and sched.full_rank()

    def _active_deps(self, sched: Schedule, band_start: int) -> list[Dependence]:
        """Deps constraining the next hyperplane: unsatisfied, or satisfied
        within the current band (keeps the band permutable)."""
        order = self.order
        return [
            d for d in self.ddg.deps
            if id(d) not in order.by_cut
            and order.level.get(id(d), band_start) >= band_start
        ]

    def _farkas(self, dep: Dependence) -> tuple[tuple, tuple]:
        """``dep``'s legality and bounding rows.  They depend on neither the
        level nor the run, so they are computed once per dependence graph
        (``ddg.farkas``) and shared with every other scheduler over it."""
        rows = self.ddg.farkas.get(id(dep))
        if rows is None:
            rows = self.ddg.farkas[id(dep)] = (
                tuple(legality_constraints(dep)),
                tuple(bounding_constraints(dep)),
            )
        if self.warm is not None:
            self.warm.note_farkas(
                f"{dep.kind}:{dep.source.name}->{dep.target.name}@{dep.array}",
                len(rows[0]), len(rows[1]),
            )
        return rows

    # -- the per-level ILP ----------------------------------------------------------

    def _add_con(self, model: ILPModel, seen: set, con: LinearConstraint) -> None:
        """Normalized, de-duplicated constraint insertion.

        Rows are gcd-normalized (reusing the Fourier–Motzkin row machinery)
        before keying, so dependences with the same shape — or scaled
        variants of the same facet — collapse to one row; trivially-true
        rows are dropped outright.  Every collapsed row is one row fewer in
        each HiGHS entry the lexmin makes over this model (counted in
        ``stats.solve.dedup_rows``).
        """
        key = None
        items = sorted(con.coeffs.items())
        raw = _integer_row([v for _, v in items] + [con.const])
        if raw is not None:
            norm = normalize_row((raw, con.equality))
            if norm is None:
                self.stats.solve.dedup_rows += 1
                return  # trivially satisfied
            nrow, neq = norm
            coeffs = {
                name: c for (name, _), c in zip(items, nrow[:-1]) if c
            }
            con = LinearConstraint(coeffs, nrow[-1], neq, con.label)
            key = (tuple(coeffs.items()), nrow[-1], neq)
        if key is None:
            key = (tuple(sorted(con.coeffs.items())), con.const, con.equality)
        if key in seen:
            self.stats.solve.dedup_rows += 1
            return
        seen.add(key)
        model.add_constraint(con.coeffs, con.const, con.equality, con.label)

    def _build_skeleton(
        self, active: Sequence[Dependence]
    ) -> tuple[ILPModel, set]:
        """Variables, objective order, csum rows, and the Farkas rows of the
        active dependence set — everything that does not change while the
        current band is being grown."""
        opts = self.options
        plus = opts.algorithm == "plutoplus"
        b = opts.coeff_bound
        model = ILPModel()
        order: list[str] = []
        seen: set = set()

        for p in self.program.params:
            model.add_variable(u_name(p), lower=0)
            order.append(u_name(p))
        model.add_variable(W_NAME, lower=0)
        order.append(W_NAME)

        use_csum = plus and opts.csum_objective
        for s in self.program.statements:
            if use_csum:
                model.add_variable(csum_name(s), lower=0, upper=b * max(s.dim, 1))
                order.append(csum_name(s))
            for it in s.space.dims:
                if plus:
                    model.add_variable(c_name(s, it), lower=-b, upper=b)
                else:
                    model.add_variable(c_name(s, it), lower=0)
                order.append(c_name(s, it))
            for p in s.space.params:
                model.add_variable(d_name(s, p), lower=0)
                order.append(d_name(s, p))
            model.add_variable(c0_name(s), lower=0)
            order.append(c0_name(s))
            if plus:
                model.add_variable(delta_name(s), lower=0, upper=1)
                order.append(delta_name(s))
                model.add_variable(deltal_name(s), lower=0, upper=1)
                order.append(deltal_name(s))
            if plus and use_csum:
                for con in _csum_constraints(s, b):
                    self._add_con(model, seen, con)

        for dep in active:
            legal, bound = self._farkas(dep)
            for con in legal + bound:
                self._add_con(model, seen, con)

        for dep in self.rar:
            for con in self._rar_bounds(dep):
                self._add_con(model, seen, con)

        model.set_objective_order(order)
        return model, seen

    def _rar_bounds(self, dep: Dependence) -> list:
        key = id(dep)
        if key not in self._rar_bound_cache:
            self._rar_bound_cache[key] = bounding_constraints(dep)
        return self._rar_bound_cache[key]

    def build_model(
        self, sched: Schedule, active: Sequence[Dependence]
    ) -> ILPModel:
        opts = self.options
        plus = opts.algorithm == "plutoplus"
        b = opts.coeff_bound

        key = tuple(sorted(id(d) for d in active))
        cached = self._skeleton_cache.get(key)
        if cached is None:
            skeleton, skeleton_seen = self._build_skeleton(active)
            self._skeleton_cache[key] = (skeleton, skeleton_seen)
        else:
            skeleton, skeleton_seen = cached
            self.stats.solve.models_reused += 1

        # Only the level-dependent rows are added on top of the (possibly
        # cached) skeleton: zero-avoidance and linear independence against
        # the hyperplanes found so far.
        model = skeleton.clone()
        seen = set(skeleton_seen)
        for s in self.program.statements:
            full = sched.rank[s.name] >= s.dim
            if full or s.dim == 0:
                continue
            if plus:
                for con in plutoplus_nonzero_constraints(s, b):
                    self._add_con(model, seen, con)
                for con in plutoplus_independence_constraints(
                    s, sched.h_rows(s), b
                ):
                    self._add_con(model, seen, con)
            else:
                for con in pluto_independence_constraints(s, sched.h_rows(s)):
                    self._add_con(model, seen, con)
        return model

    def _row_from(self, assignment) -> Optional[ScheduleRow]:
        """The ``ScheduleRow`` an ILP assignment encodes; ``None`` if all-zero.

        Serves the cold solve (``Fraction`` values) and the replay of a
        recorded one (their ``str`` forms) alike; a malformed record raises
        ``KeyError``/``ValueError``/``TypeError``.
        """
        exprs: dict[str, AffExpr] = {}
        nonzero = False
        for s in self.program.statements:
            terms = {
                it: int(Fraction(assignment[c_name(s, it)]))
                for it in s.space.dims
            }
            for p in s.space.params:
                terms[p] = int(Fraction(assignment[d_name(s, p)]))
            const = int(Fraction(assignment[c0_name(s)]))
            if any(terms.values()) or const:
                nonzero = True
            exprs[s.name] = AffExpr.from_terms(s.space, terms, const)
        if not nonzero:
            return None
        return ScheduleRow("loop", exprs)

    def find_hyperplane(
        self,
        sched: Schedule,
        active: Sequence[Dependence],
        constrain: Optional[Callable[[ILPModel], bool]] = None,
        key_extra=None,
    ) -> Optional[ScheduleRow]:
        """The one per-level solve step: replay, or build → lexmin → record.

        ``constrain(model)`` may add side constraints to the freshly built
        model (diamond tiling's concurrent-start rows) and returns ``False``
        to decline the level.  Whatever it adds must be determined by the
        model inputs plus ``key_extra``, which tags the solve key so such
        records never collide with the plain band search over the same state.
        """
        if self.warm is not None:
            from repro.core.skeleton import scheduler_solve_key

            skey = scheduler_solve_key(
                self.program, self.options, sched, active, extra=key_extra
            )
            record = self.warm.lookup(skey)
            if record is not None:
                # Only an *exact* solve-key match gets here, where the lexmin
                # optimum is a unique vector (every model variable is in the
                # objective order or, like diamond's ``ds.<S>`` binaries
                # added by ``constrain``, forced by the ``c``s) — so this is
                # the same row a cold solve would produce, including the
                # no-hyperplane (non-optimal / all-zero) outcomes.
                try:
                    row = None
                    if record.get("status") == "optimal":
                        row = self._row_from(record["assignment"])
                except (KeyError, ValueError, TypeError):
                    self.warm.forget(skey)  # poisoned record: solve cold
                else:
                    self.warm.hits += 1
                    self.stats.structural_warm_start += 1
                    return row
            self.warm.misses += 1
        model = self.build_model(sched, active)
        if constrain is not None and not constrain(model):
            return None
        self.stats.ilp_variables_max = max(
            self.stats.ilp_variables_max, model.num_variables
        )
        t0 = time.perf_counter()
        result = lexmin(model)
        dt = time.perf_counter() - t0
        self.stats.ilp_solves += result.solves
        self.stats.solve.merge(result.stats)
        self.stats.solve.solve_seconds += dt
        if self.warm is not None:
            record = {"status": result.status}
            if result.is_optimal:
                record["assignment"] = {
                    name: str(value) for name, value in result.assignment.items()
                }
            self.warm.record(skey, record)
        if not result.is_optimal:
            return None
        return self._row_from(result.assignment)

    # -- progress bookkeeping ----------------------------------------------------------

    def _update_satisfaction(self, sched: Schedule, level: int) -> None:
        """Account the new loop row at ``level`` (:meth:`Ordering.advance`);
        questions shared between dependences count in ``sat_batched``."""
        dists = self.order.distances(sched.rows[level])
        self.stats.sat_batched += self.order.advance(level, dists)

    def _cut_dim_based(self, sched: Schedule) -> bool:
        """Pluto's smartfuse opening move: order SCCs whose statements have
        different nesting depth before searching for common hyperplanes
        (statements of unequal dimensionality rarely profit from fusion and
        inflate the ILP)."""
        sccs = self.ddg.sccs(self.order.unsatisfied())
        if len(sccs) <= 1:
            return False
        dims = [max(s.dim for s in scc) for scc in sccs]
        if len(set(dims)) <= 1:
            return False
        # group consecutive SCCs of equal dimensionality; order the groups
        index: dict[str, int] = {}
        pos = 0
        for k, scc in enumerate(sccs):
            if k > 0 and dims[k] != dims[k - 1]:
                pos += 1
            for s in scc:
                index[s.name] = pos
        if len(set(index.values())) <= 1:
            return False
        if self.order.cut(index) == 0:
            return False
        sched.add_scalar_row(index)
        self.stats.cuts += 1
        return True

    def _cut(self, sched: Schedule) -> bool:
        """Insert a scalar dimension ordering the SCCs of the unsatisfied DDG."""
        sccs = self.ddg.sccs(self.order.unsatisfied())
        if len(sccs) <= 1:
            return False
        index: dict[str, int] = {}
        for pos, scc in enumerate(sccs):
            for s in scc:
                index[s.name] = pos
        if self.order.cut(index) == 0 and self.order.unsatisfied():
            # The cut would order nothing that matters; cutting again cannot
            # make progress, so report failure to the driver.
            return False
        sched.add_scalar_row(index)
        self.stats.cuts += 1
        return True


def _csum_constraints(stmt: Statement, bound: int) -> list[LinearConstraint]:
    """Section 3.6: ``csum_S >= +/- c_1 +/- c_2 ... +/- c_m`` (all sign rows)."""
    out: list[LinearConstraint] = []
    m = stmt.dim
    if m == 0:
        return out
    names = [c_name(stmt, it) for it in stmt.space.dims]
    for mask in range(1 << m):
        terms = {csum_name(stmt): 1}
        for k, name in enumerate(names):
            terms[name] = -1 if not (mask >> k) & 1 else 1
        out.append(LinearConstraint(terms, 0, label=f"csum:{stmt.name}"))
    return out
