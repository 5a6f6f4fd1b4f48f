"""Integration: the distributed obstacle solver over the full stack."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core import P2PDC
from repro.numerics import membrane_problem, projected_richardson
from repro.p2psap import P2PSAP, TABLE_I, CommMode, ConnectionKind, Scheme
from repro.simnet import Simulator, nicta_testbed
from repro.solvers import ObstacleApplication
from repro.resources import ResourceContext
from repro.scenarios import generate_script, run_scenario
from repro.solvers.distributed_richardson import _BlockSolver, get_problem

N = 12
TOL = 1e-5


@pytest.fixture(scope="module")
def sequential():
    return projected_richardson(membrane_problem(N), tol=TOL, sweep="jacobi")


def _solve(n_peers, scheme, clusters=1, n=N, tol=TOL, extra=None,
           timeout=1e6):
    sim = Simulator()
    net = nicta_testbed(sim, max(n_peers, clusters), n_clusters=clusters)
    env = P2PDC(sim, net)
    env.register_everywhere(ObstacleApplication())
    params = {"n": n, "tol": tol}
    if extra:
        params.update(extra)
    with _recording_sessions() as sessions:
        run = env.run_to_completion(
            "obstacle", params=params, n_peers=n_peers, scheme=scheme,
            timeout=timeout,
        )
    return run, env, sessions


@contextlib.contextmanager
def _recording_sessions():
    """Yield a dict that records every P2PSAP session opened meanwhile,
    by id: ``[(node, initiator session), (node, responder session)]``."""
    ends = {}
    open_session, handle_open = P2PSAP.open_session, P2PSAP._handle_open

    def record(proto, session):
        pair = ends.setdefault(session.session_id, [None, None])
        pair[0 if session.initiator else 1] = (proto.node.name, session)

    def opened(proto, remote, scheme):
        session = open_session(proto, remote, scheme)
        record(proto, session)
        return session

    def accepted(proto, src, body):
        handle_open(proto, src, body)
        record(proto, proto.sessions[body["session_id"]])

    with mock.patch.object(P2PSAP, "open_session", opened), \
            mock.patch.object(P2PSAP, "_handle_open", accepted):
        yield ends


@pytest.fixture(scope="module")
def solve():
    """``_solve`` memoized for this module: the DES is deterministic and no
    test mutates a result, so each configuration is solved once however
    many tests read it.  ``solve(...)`` is the run; ``solve.env(...)``
    the deployment that ran it, and ``solve.sessions(...)`` the sessions
    it opened (see :func:`_recording_sessions`)."""
    runs = {}

    def solved(n_peers, scheme, clusters=1, **kwargs):
        key = (n_peers, scheme, clusters, repr(sorted(kwargs.items())))
        if key not in runs:
            runs[key] = _solve(n_peers, scheme, clusters, **kwargs)
        return runs[key]

    def memoized(*args, **kwargs):
        return solved(*args, **kwargs)[0]

    memoized.env = lambda *args, **kwargs: solved(*args, **kwargs)[1]
    memoized.sessions = lambda *args, **kwargs: solved(*args, **kwargs)[2]
    return memoized


class TestCorrectness:
    @pytest.mark.parametrize("scheme", ["synchronous", "asynchronous", "hybrid"])
    def test_matches_sequential_solution(self, solve, sequential, scheme):
        run = solve(3, scheme)
        err = np.max(np.abs(run.output.u - sequential.u))
        assert err < 50 * TOL
        assert run.output.residual < 10 * TOL

    def test_single_peer_equals_sequential_gs(self, solve):
        run = solve(1, "synchronous")
        seq = projected_richardson(
            membrane_problem(N), tol=TOL, sweep="gauss_seidel"
        )
        assert run.output.relaxations == seq.relaxations
        np.testing.assert_allclose(run.output.u, seq.u, atol=1e-12)

    def test_solution_feasible(self, solve):
        run = solve(4, "asynchronous", clusters=2)
        problem = get_problem("membrane", N)
        assert problem.constraint.contains(run.output.u, atol=1e-9)

    def test_local_jacobi_mode_relaxations_match_sequential(self, solve,
                                                             sequential):
        """With in-node Jacobi sweeps the synchronous distributed count
        equals the sequential Jacobi count exactly, for every α."""
        counts = set()
        for a in (2, 3):
            run = solve(a, "synchronous", extra={"local_sweep": "jacobi"})
            counts.add(run.output.relaxations)
        assert counts == {float(sequential.relaxations)}

    def test_torsion_problem_distributed(self, solve):
        run = solve(2, "synchronous", extra={"problem": "torsion"})
        seq = projected_richardson(
            get_problem("torsion", N), tol=TOL, sweep="jacobi"
        )
        assert np.max(np.abs(run.output.u - seq.u)) < 100 * TOL

    def test_weighted_assignment(self, solve):
        run = solve(2, "synchronous", extra={"weights": [3.0, 1.0]})
        loads = [r.hi - r.lo for r in run.output.per_peer]
        assert loads == [9, 3]


class TestSchemeBehaviour:
    def test_sync_relaxation_count_stable_across_alpha(self, solve):
        counts = [solve(a, "synchronous").output.relaxations for a in (2, 4)]
        assert max(counts) <= 1.25 * min(counts)

    def test_async_average_relaxations_grow_with_alpha(self, solve):
        r2 = solve(2, "asynchronous", clusters=2).output.relaxations
        r4 = solve(4, "asynchronous", clusters=2).output.relaxations
        assert r4 > r2

    def test_async_faster_than_sync_on_two_clusters(self, solve):
        ts = solve(4, "synchronous", clusters=2).elapsed
        ta = solve(4, "asynchronous", clusters=2).elapsed
        assert ta < ts

    def test_sync_insensitive_counts_but_sensitive_time(self, solve):
        one = solve(4, "synchronous", clusters=1)
        two = solve(4, "synchronous", clusters=2)
        assert two.output.relaxations == one.output.relaxations
        assert two.elapsed > 2 * one.elapsed

    def test_hybrid_mixes_modes(self, solve):
        """Hybrid on 2 clusters: intra edges sync, the WAN edge async."""
        run = solve(4, "hybrid", clusters=2)
        assert run.output.residual < 10 * TOL
        # Clusters split 2+2, so the WAN edge is between ranks 1 and 2.
        rank = run.peer_names.index
        modes = {
            (rank(a), rank(session.remote)): session.config.mode
            for (a, session), _ in solve.sessions(4, "hybrid", clusters=2).values()
        }
        assert modes == {
            (0, 1): CommMode.SYNCHRONOUS,
            (1, 2): CommMode.ASYNCHRONOUS,
            (2, 3): CommMode.SYNCHRONOUS,
        }

    def test_wait_time_dominates_sync_on_wan(self, solve):
        run = solve(4, "synchronous", clusters=2)
        assert run.output.max_wait_time > 0.5 * run.elapsed


class TestTableIAtOpen:
    @pytest.mark.parametrize("clusters,n_peers", [(1, 3), (2, 4)])
    @pytest.mark.parametrize("scheme", ["synchronous", "asynchronous", "hybrid"])
    def test_every_session_gets_its_table1_cell(self, solve, scheme, clusters,
                                                n_peers):
        """Both ends of every session a solve opens hold the Table I cell
        of the solve's scheme and the session's connection kind."""
        env = solve.env(n_peers, scheme, clusters=clusters)
        sessions = solve.sessions(n_peers, scheme, clusters=clusters)
        assert len(sessions) >= n_peers - 1
        kinds = set()
        for sid, (initiator, responder) in sessions.items():
            assert initiator is not None and responder is not None, sid
            (a, out), (b, back) = initiator, responder
            assert (out.remote, back.remote) == (b, a)
            kind = (ConnectionKind.INTRA_CLUSTER if env.network.same_cluster(a, b)
                    else ConnectionKind.INTER_CLUSTER)
            kinds.add(kind)
            expected = TABLE_I[(Scheme.parse(scheme), kind)]
            assert out.scheme is back.scheme is Scheme.parse(scheme)
            assert out.config == back.config == expected, sid
        assert (ConnectionKind.INTER_CLUSTER in kinds) == (clusters == 2)


class TestModesHeldPerSolve:
    """A solver reads each neighbour session's mode once, after its
    connects; a neighbour that crashes and rejoins opens a session in
    the same Table I cell, so the held modes stay right."""

    @pytest.mark.parametrize("seed", [2, 5])  # hybrid, two clusters
    def test_held_modes_match_the_sessions_across_a_rejoin(self, seed,
                                                           monkeypatch):
        checks = []
        send_boundaries = _BlockSolver._send_boundaries

        def checked(solver):
            held = {nb: (CommMode.SYNCHRONOUS if sync
                         else CommMode.ASYNCHRONOUS)
                    for nb, _last, sync in solver._sends}
            assert held == {nb: solver.ctx.session_mode(nb) for nb in held}
            assert {nb for nb, _tag in solver._sync_recvs} == {
                nb for nb, mode in held.items()
                if mode is CommMode.SYNCHRONOUS}
            assert {nb for nb, _tag in solver._async_recvs} == {
                nb for nb, mode in held.items()
                if mode is CommMode.ASYNCHRONOUS}
            checks.append((solver.rank, solver.restarted,
                           solver.sim._now, frozenset(held.values())))
            return send_boundaries(solver)

        monkeypatch.setattr(_BlockSolver, "_send_boundaries", checked)
        script = generate_script(seed)
        result = run_scenario(script)
        assert result.ok, "\n".join(result.violations)
        crash, = (r for r in result.injections
                  if r.event.kind == "crash" and r.applied)
        restart, = (r for r in result.injections
                    if r.event.kind == "restart" and r.applied)
        assert any(restarted and rank == crash.event.rank
                   for rank, restarted, _t, _modes in checks)
        assert any(abs(rank - crash.event.rank) == 1 and t > restart.time
                   for rank, restarted, t, _modes in checks)
        assert set().union(*(modes for *_, modes in checks)) == set(CommMode)


class TestInstrumentation:
    def test_per_peer_reports(self, solve):
        run = solve(3, "synchronous")
        reports = run.output.per_peer
        assert [r.rank for r in reports] == [0, 1, 2]
        assert sum(r.hi - r.lo for r in reports) == N
        assert all(r.sends > 0 for r in reports)
        assert all(r.relaxations > 0 for r in reports)

    def test_total_relaxations_sums_the_peers(self, solve):
        out = solve(3, "asynchronous").output
        assert out.total_relaxations == sum(r.relaxations
                                            for r in out.per_peer)
        assert out.total_relaxations > out.relaxations

    def test_checkpointing_flows_to_fault_tolerance(self):
        sim = Simulator()
        net = nicta_testbed(sim, 2, n_clusters=1)
        env = P2PDC(sim, net, enable_fault_tolerance=True)
        env.register_everywhere(ObstacleApplication())
        run = env.run_to_completion(
            "obstacle",
            params={"n": N, "tol": TOL, "checkpoint_every": 10},
            n_peers=2, scheme="synchronous", timeout=1e6,
        )
        assert len(env.fault_tolerance.store) == 2
        states = env.fault_tolerance.recovery_states(2)
        assert states[0] is not None and states[0]["sweep"] >= 10


def test_float32_tolerance_below_floor_rejected():
    # The solver's ValueError surfaces as the environment's
    # "sub-task(s) failed" RuntimeError, message preserved.
    with pytest.raises(RuntimeError, match="termination floor"):
        _solve(2, "synchronous", extra={"dtype": "float32", "tol": 1e-7})


class TestRejections:
    """Bad solve requests fail loudly, and failures inside a peer's
    Calculate() surface through the environment with their message."""

    def test_unknown_problem_kind(self):
        with pytest.raises(ValueError, match="unknown problem kind 'sphere'"):
            get_problem("sphere", 8, resources=ResourceContext())

    def test_weights_must_cover_every_peer(self):
        with pytest.raises(ValueError, match="weights length"):
            ObstacleApplication().problem_definition(
                {"n": 8, "n_peers": 2, "weights": [1.0, 1.0, 1.0]})

    def test_warm_start_of_the_wrong_shape(self):
        with pytest.raises(RuntimeError, match="warm_start_u must have shape"):
            _solve(1, "synchronous", n=8,
                   extra={"warm_start_u": np.zeros((4, 4, 4))})

    def test_single_peer_relaxation_cap(self):
        with pytest.raises(RuntimeError, match="no convergence in 3"):
            _solve(1, "synchronous", n=8, extra={"max_relaxations": 3})


class TestProblemCache:
    def test_is_a_bounded_lru(self):
        ctx = ResourceContext()
        first = get_problem("membrane", 2, resources=ctx)
        for n in range(3, 18):
            get_problem("membrane", n, resources=ctx)
        # Touching n=2 made it the most recent, so n=18 evicts n=3.
        assert get_problem("membrane", 2, resources=ctx) is first
        get_problem("membrane", 18, resources=ctx)
        assert len(ctx.problem_cache) == 16
        assert ("membrane", 2) in ctx.problem_cache
        assert ("membrane", 3) not in ctx.problem_cache
