"""The three benchmark workloads: seeded inputs, timed blocks and output checks.

Every workload is a closed loop driven by one client in one process: the
next operation starts only when the previous one has returned. A workload
runs in blocks; ``block(k)`` draws its inputs from the workload seed and
the block index only, times each operation, then checks the outputs with
the clock stopped and tracing paused.

- ``cli``: real ``python -m modal_ent.cli`` subprocesses, one call per
  block. A round of blocks holds every README subcommand once, in a seeded
  order, so every seed gives the same mix. Interpreter start and imports
  dominate a call.
- ``batch-analysis``: in-process library calls over a seeded pool of state
  files, half dense random states and half sparse family members. One
  block is a chunk of states followed by one dense ``invariance_sweep``.
- ``monotone-mc``: ``run_monotone_trials`` calls of a fixed size, each with
  its own master seed, strength 0.5 and a fresh random state per trial,
  which is the CLI default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import modal_ent.cli
from modal_ent import (
    classify,
    invariants,
    monte_carlo,
    operators,
    serialize,
    stabilizers,
    states,
)
from modal_ent.states import SHAPE_321

from tracing import SpanRecorder

FAMILIES = ("S1", "S2", "Eq14", "Eq15", "Eq16", "Eq18", "psi1", "psi2")
TSIRELSON = 2.0 * math.sqrt(2.0)
INVARIANT_TOL = 1e-9
SWEEP_TOL = 1e-8
REPLAY_TOL = 1e-12
CLI_TOL = 1e-12


def mix(*parts: int) -> int:
    """A 63-bit seed from integers; the same parts always give the same seed."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def family_params(name: str, rng: np.random.Generator) -> Dict[str, float]:
    """Random valid parameters of a named family; Eq amplitudes come normalized."""
    if name == "S1":
        return {"r": float(rng.uniform(0.0, 1.0 / math.sqrt(6.0)))}
    if name == "S2":
        return {"r": float(rng.uniform(0.0, 1.0 / math.sqrt(3.0))),
                "theta": float(rng.uniform(-math.pi, math.pi))}
    if name in ("psi1", "psi2"):
        return {}
    count = {"Eq14": 3, "Eq15": 3, "Eq16": 4, "Eq18": 5}[name]
    r = rng.uniform(0.2, 1.0, size=count)
    total = float(np.sum(r**2))
    if name == "Eq18":
        total += float((r[2] * r[3] / r[4]) ** 2)
    r /= math.sqrt(total)
    params = {f"r{i + 1}": float(v) for i, v in enumerate(r)}
    if name == "Eq16":
        params["phi"] = float(rng.uniform(-math.pi, math.pi))
    if name == "Eq18":
        params["theta"] = float(rng.uniform(-math.pi, math.pi))
    return params


def format_params(params: Dict[str, object]) -> str:
    """The CLI's ``key=value,...`` spelling; repr keeps floats exact."""
    return ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in params.items())


@dataclass
class Block:
    """What one block did: per-op latencies, busy time and failed ops."""

    ops: int = 0
    busy_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)


@contextlib.contextmanager
def paused(recorder: Optional[SpanRecorder]):
    """Stop recording spans while checks call into the library."""
    if recorder is None:
        yield
        return
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = True


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(complex(a) - complex(b)) <= tol


# --------------------------------------------------------------------- cli


@dataclass
class CliCall:
    """One counted call: a single command, or the two stages of a pipeline."""

    kind: str
    argvs: List[List[str]]
    info: Dict[str, object]


CLI_KINDS = (
    "family|invariants",
    "canonical",
    "classify",
    "chsh",
    "verify-stabilizer",
    "theorem3-scan",
    "monotone-mc",
)
MC_CLI_TRIALS = 100


def _stabilizer_params(name: str, rng: np.random.Generator) -> Dict[str, object]:
    """Parameters under which the named stabilizer fixes its target states."""
    if name == "generic_eq13":
        return {"m": int(rng.integers(-4, 5)), "alpha": float(rng.uniform(-3.0, 3.0))}
    if name == "family16_eq20":
        return {k: float(rng.uniform(-2.0, 2.0)) for k in ("alpha", "beta", "gamma")}
    if name == "psi2_eq26":
        return {k: float(rng.uniform(-2.0, 2.0)) for k in ("alpha", "beta", "gamma", "delta")}
    variant = str(rng.choice(["a", "b", "c"]))
    if variant == "a":
        params: Dict[str, object] = {"variant": "a"}
        params.update({k: int(rng.integers(-3, 4)) for k in ("k", "l", "m", "n", "p")})
        params["q"] = 2 * int(rng.integers(-2, 3))
        params["alpha"] = float(rng.uniform(-2.0, 2.0))
        return params
    if variant == "b":
        return {"variant": "b"}
    return {"variant": "c", "beta": float(rng.uniform(-2.0, 2.0))}


class CliWorkload:
    """README subcommands as real subprocesses, or in-process for the traced run."""

    name = "cli"
    # A run stops only between whole rounds, so every run has the same mix.
    blocks_per_round = len(CLI_KINDS)

    def __init__(self, seed: int, workdir: str, src: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.in_process = False
        self.env = {k: v for k, v in os.environ.items() if k != "MODAL_ENT_THREADS"}
        self.env["PYTHONPATH"] = src
        self.expected: Dict[str, object] = {
            "psi2_abs_I2": 3.0**-1.5,
            "theorem3_feasible": {(3, 2, 1), (6, 4, 1), (4, 3, 2), (8, 6, 2), (5, 4, 3)},
        }
        rng = np.random.default_rng(mix(seed, 10))
        self.files: Dict[str, str] = {}
        for j in range(4):
            self._write(f"dense{j}", states.random_state(SHAPE_321, rng))
        for name in FAMILIES:
            self._write(name, classify.family(name, family_params(name, rng)))
        self.analysis_inputs = sorted(self.files)
        for j in range(2):
            self._write(f"canonical{j}", classify.canonical_form(states.random_state(SHAPE_321, rng)).state)
        self.stabilizer_targets = {
            "generic_eq13": ["canonical0", "canonical1"],
            "family16_eq20": ["Eq16"],
            "psi1_eq23": ["psi1"],
            "psi2_eq26": ["psi2"],
        }
        self.element_path = os.path.join(workdir, "element.json")
        self._round: Tuple[Optional[int], List[CliCall]] = (None, [])

    def _write(self, key: str, state: states.StateVector) -> None:
        path = os.path.join(self.workdir, f"{key}.json")
        with open(path, "w") as fh:
            fh.write(serialize.state_to_json(state))
        self.files[key] = path

    def metadata(self) -> Dict[str, object]:
        return {"kinds_per_round": list(CLI_KINDS), "state_files": len(self.files)}

    def calls(self, k: int) -> List[CliCall]:
        """Round ``k``: every kind once, in an order and with inputs drawn from the seed."""
        rng = np.random.default_rng(mix(self.seed, 11, k))
        out = []
        for kind in rng.permutation(CLI_KINDS):
            kind = str(kind)
            if kind == "family|invariants":
                name = str(rng.choice(FAMILIES))
                params = family_params(name, rng)
                family_argv = ["family", "--name", name]
                if params:
                    family_argv += ["--params", format_params(params)]
                out.append(CliCall(kind, [family_argv, ["invariants"]], {"name": name, "params": params}))
            elif kind in ("canonical", "classify", "chsh"):
                key = str(rng.choice(self.analysis_inputs))
                argv = [kind, "--in", self.files[key]]
                if kind == "canonical":
                    argv += ["--params", "--element-out", self.element_path]
                out.append(CliCall(kind, [argv], {"input": key}))
            elif kind == "verify-stabilizer":
                name = str(rng.choice(stabilizers.STABILIZER_NAMES))
                target = str(rng.choice(self.stabilizer_targets[name]))
                argv = ["verify-stabilizer", "--name", name, "--in", self.files[target]]
                params = _stabilizer_params(name, rng)
                argv += ["--params", format_params(params)]
                out.append(CliCall(kind, [argv], {"name": name, "input": target}))
            elif kind == "theorem3-scan":
                out.append(CliCall(kind, [["theorem3-scan", "--n", "1..8", "--p", "1..3"]], {}))
            else:
                mc_seed = int(rng.integers(2**31))
                argv = ["monotone-mc", "--trials", str(MC_CLI_TRIALS), "--seed", str(mc_seed)]
                out.append(CliCall(kind, [argv], {"seed": mc_seed}))
        return out

    def warm_up(self) -> None:
        """Nothing: a CLI call pays its own start-up, which is what is measured."""

    def block(self, k: int, recorder: Optional[SpanRecorder] = None) -> Block:
        """Call ``k``: position ``k % len(CLI_KINDS)`` of round ``k // len(CLI_KINDS)``."""
        number, position = divmod(k, len(CLI_KINDS))
        if self._round[0] != number:
            self._round = (number, self.calls(number))
        call = self._round[1][position]
        block = Block(ops=1)
        if recorder is not None:
            recorder.op = k
        start = time.perf_counter()
        try:
            results = self._run_in_process(call, recorder) if self.in_process else self._run_subprocess(call)
        except Exception as exc:  # a crashed call is a failed op, not a crashed benchmark
            results = exc
        block.busy_s = time.perf_counter() - start
        block.latencies_s.append(block.busy_s)
        with paused(recorder):
            error = repr(results) if isinstance(results, Exception) else self.check(call, results)
        if error:
            block.fail(f"{call.kind} {call.info}: {error}")
        return block

    def _popen(self, argv: List[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "modal_ent.cli", *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=self.workdir, env=self.env, text=True,
        )

    def _run_subprocess(self, call: CliCall) -> List[Tuple[int, str, str]]:
        # All stages start at once, as a shell pipeline starts them; each
        # stage's output feeds the next one's standard input.
        procs = [self._popen(argv) for argv in call.argvs]
        results = []
        feed = ""
        try:
            for proc in procs:
                out, err = proc.communicate(feed)
                results.append((proc.returncode, out, err))
                feed = out
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return results

    def _run_in_process(self, call: CliCall, recorder: Optional[SpanRecorder]) -> List[Tuple[int, str, str]]:
        results = []
        feed = ""
        for argv in call.argvs:
            out, err = io.StringIO(), io.StringIO()
            saved_stdin = sys.stdin
            sys.stdin = io.StringIO(feed)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if recorder is None:
                        code = modal_ent.cli.main(argv)
                    else:
                        code = recorder.record(f"cli.{argv[0]}", modal_ent.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                sys.stdin = saved_stdin
            results.append((code, out.getvalue(), err.getvalue()))
            feed = out.getvalue()
        return results

    def _load(self, key: str) -> states.StateVector:
        with open(self.files[key]) as fh:
            return serialize.state_from_json(fh.read())

    def check(self, call: CliCall, results: List[Tuple[int, str, str]]) -> Optional[str]:
        """Why the call's outputs are wrong, or None when they are right."""
        for code, _, err in results:
            if code != 0:
                return f"exit status {code}: {err.strip()[-300:]}"
        out = results[-1][1]
        try:
            if call.kind == "theorem3-scan":
                return self._check_scan(out)
            doc = json.loads(out)
            if call.kind == "family|invariants":
                return self._check_pipeline(call, results[0][1], doc)
            if call.kind == "canonical":
                return self._check_canonical(call, doc)
            if call.kind == "classify":
                return self._check_classify(call, doc)
            if call.kind == "chsh":
                return self._check_chsh(call, doc)
            if call.kind == "verify-stabilizer":
                if doc["stabilizes"] is not True or doc["ray_preserved"] is not True:
                    return f"stabilizer did not fix its target: {doc}"
                return None
            return self._check_monotone(call, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_pipeline(self, call: CliCall, family_text: str, doc: dict) -> Optional[str]:
        state = classify.family(call.info["name"], call.info["params"])
        if family_text != serialize.state_to_json(state):
            return "family wrote a different state file than the library builds"
        if serialize.state_to_json(serialize.state_from_json(family_text)) != family_text:
            return "state file does not round-trip through load and save"
        rep = invariants.invariant_report(state)
        got = {k: complex(doc[k]["re"], doc[k]["im"]) for k in ("I1", "I2")}
        if not (_close(got["I1"], rep.I1, CLI_TOL) and _close(got["I2"], rep.I2, CLI_TOL)):
            return f"invariants {got} differ from the library's ({rep.I1}, {rep.I2})"
        if call.info["name"] == "psi2":
            if abs(got["I1"]) > CLI_TOL or abs(abs(got["I2"]) - self.expected["psi2_abs_I2"]) > CLI_TOL:
                return f"psi2 invariants {got} are not I1 = 0, |I2| = 3^-1.5"
        return None

    def _check_canonical(self, call: CliCall, doc: dict) -> Optional[str]:
        state = self._load(call.info["input"])
        want = classify.canonical_form(state)
        got = [doc["r"], [doc["phi"], doc["phi_prime"], doc["theta"]]]
        ref = [want.r, [want.phi, want.phi_prime, want.theta]]
        if max(abs(a - b) for g, w in zip(got, ref) for a, b in zip(g, w)) > CLI_TOL:
            return f"canonical parameters {doc} differ from the library's"
        with open(self.element_path) as fh:
            element = serialize.element_from_json(fh.read())
        moved = operators.apply(element, state)
        if np.max(np.abs(moved.dense() - want.state.dense())) > INVARIANT_TOL:
            return "the written element does not carry the input to its canonical state"
        return None

    def _check_classify(self, call: CliCall, doc: dict) -> Optional[str]:
        want = classify.membership_report(self._load(call.info["input"]))
        flags = {k: getattr(want.profile, k) for k in doc["profile"]}
        if doc["profile"] != flags or len(flags) != 7:
            return f"profile {doc['profile']} differs from the library's"
        if doc["families"] != list(want.families):
            return f"families {doc['families']} differ from {list(want.families)}"
        for key in ("maximally_entangled", "psi1_signature", "psi2_signature"):
            if doc[key] != getattr(want, key):
                return f"{key} is {doc[key]}"
        if abs(doc["abs_I1"] - abs(want.invariants.I1)) > CLI_TOL or abs(
            doc["abs_I2"] - abs(want.invariants.I2)
        ) > CLI_TOL:
            return "invariant moduli differ from the library's"
        return None

    def _check_chsh(self, call: CliCall, doc: dict) -> Optional[str]:
        state = self._load(call.info["input"])
        for pair in ("AB", "BC", "AC"):
            vec, weight = classify.pair_projection(state, pair)
            got = doc[pair]
            if abs(got["weight"] - weight) > CLI_TOL:
                return f"{pair} weight {got['weight']} differs from {weight}"
            if vec is None:
                if got["chsh"] is not None:
                    return f"{pair} has a CHSH value on an empty projection"
                continue
            value = got["chsh"]
            if not 2.0 - INVARIANT_TOL <= value <= TSIRELSON + INVARIANT_TOL:
                return f"{pair} CHSH {value} outside [2, 2 sqrt 2]"
            if abs(value - classify.chsh_value(vec)) > CLI_TOL:
                return f"{pair} CHSH {value} differs from the library's"
        return None

    def _check_scan(self, out: str) -> Optional[str]:
        lines = out.splitlines()
        if lines[0] != "schema_version,n,m,p,feasible,constructed,max_ent_verified":
            return f"unexpected CSV header {lines[0]!r}"
        feasible = set()
        for line in lines[1:]:
            _, n, m, p, ok, built, verified = line.split(",")
            if ok == "true":
                feasible.add((int(n), int(m), int(p)))
                if built == "true" and verified != "true":
                    return f"constructed state ({n}, {m}, {p}) is not maximally entangled"
        if feasible != self.expected["theorem3_feasible"]:
            return f"feasible set {sorted(feasible)} is wrong"
        return None

    def _check_monotone(self, call: CliCall, doc: dict) -> Optional[str]:
        if doc["trials"] != MC_CLI_TRIALS or doc["failures"] != 0 or doc["max_margin"] > monte_carlo.MARGIN_TOL:
            return f"monotone-mc summary {doc} reports violations"
        want = monte_carlo.run_monotone_trials(MC_CLI_TRIALS, call.info["seed"], strength=0.5)
        if abs(doc["max_margin"] - want.max_margin) > REPLAY_TOL:
            return f"max margin {doc['max_margin']} differs from the library's {want.max_margin}"
        return None


# ---------------------------------------------------------- batch-analysis


@dataclass(frozen=True)
class PoolEntry:
    """One state file of the pool with the invariant moduli it must keep."""

    text: str
    source: str
    sparse: bool
    abs_i1: float
    abs_i2: float


@dataclass
class StateResult:
    moved: states.StateVector
    report: invariants.InvariantReport
    params: classify.CanonicalParams
    membership: classify.MembershipReport
    chsh: List[float]
    stabilized: bool
    saved: str


class BatchAnalysisWorkload:
    """Per-state library analysis over a mixed pool of dense and sparse states."""

    name = "batch-analysis"
    blocks_per_round = 1
    in_process = True
    POOL = 256
    CHUNK = 16
    SWEEP_ELEMENTS = 3

    def __init__(self, seed: int, pool: int = POOL) -> None:
        self.seed = seed
        rng = np.random.default_rng(mix(seed, 20))
        made: List[Tuple[str, states.StateVector]] = []
        for j in range(pool):
            if j % 2 == 0:
                made.append(("random", states.random_state(SHAPE_321, rng)))
            else:
                name = FAMILIES[(j // 2) % len(FAMILIES)]
                made.append((name, classify.family(name, family_params(name, rng))))
        self.pool: List[PoolEntry] = []
        for j in rng.permutation(pool):
            source, state = made[j]
            text = serialize.state_to_json(state)
            rep = invariants.invariant_report(serialize.state_from_json(text))
            sparse = len(state.amplitudes) < SHAPE_321.dimension
            self.pool.append(PoolEntry(text, source, sparse, abs(rep.I1), abs(rep.I2)))
        self.sparse_processed = 0
        self.processed = 0

    def metadata(self) -> Dict[str, object]:
        sparse = sum(e.sparse for e in self.pool)
        return {
            "pool_states": len(self.pool),
            "pool_sparse_share": sparse / len(self.pool),
            "pool_dense_share": 1.0 - sparse / len(self.pool),
            "processed_sparse_share": self.sparse_processed / max(self.processed, 1),
            "chunk_states": self.CHUNK,
            "sweep_elements": self.SWEEP_ELEMENTS,
        }

    def warm_up(self) -> None:
        for j in range(2):
            self.analyse(j, self.pool[j].text)

    def analyse(self, j: int, text: str) -> StateResult:
        """The timed per-state pipeline."""
        rng = np.random.default_rng(mix(self.seed, 21, j))
        state = serialize.state_from_json(text)
        element = operators.random_element("SU", int(rng.integers(2**62)))
        moved = states.normalize(operators.apply(element, state))
        report = invariants.invariant_report(moved)
        params = classify.canonical_form(moved)
        membership = classify.membership_report(moved)
        chsh = []
        for pair in ("AB", "BC", "AC"):
            vec, _ = classify.pair_projection(moved, pair)
            if vec is not None:
                chsh.append(classify.chsh_value(vec))
        stab = stabilizers.stabilizer(
            "generic_eq13", {"m": int(rng.integers(-4, 5)), "alpha": float(rng.uniform(-3.0, 3.0))}
        )
        stabilized, _ = stabilizers.verify_stabilizes(stab, params.state)
        saved = serialize.state_to_json(params.state)
        return StateResult(moved, report, params, membership, chsh, stabilized, saved)

    def block(self, k: int, recorder: Optional[SpanRecorder] = None) -> Block:
        block = Block()
        done: List[Tuple[int, PoolEntry, object]] = []
        for j in range(k * self.CHUNK, (k + 1) * self.CHUNK):
            entry = self.pool[j % len(self.pool)]
            if recorder is not None:
                recorder.op = j
            start = time.perf_counter()
            try:
                result: object = self.analyse(j, entry.text)
            except Exception as exc:  # a raising state is a failed op, not a crashed benchmark
                result = exc
            elapsed = time.perf_counter() - start
            block.latencies_s.append(elapsed)
            block.busy_s += elapsed
            done.append((j, entry, result))
        good = [r for _, _, r in done if isinstance(r, StateResult)]
        start = time.perf_counter()
        try:
            drift: object = (0.0, 0.0) if not good else monte_carlo.invariance_sweep(
                [r.moved for r in good],
                [operators.random_element("SLOCC", mix(self.seed, 22, k, e)) for e in range(self.SWEEP_ELEMENTS)],
            )
        except Exception as exc:  # counted against the chunk's states below
            drift = exc
        block.busy_s += time.perf_counter() - start
        block.ops = len(done)
        self.processed += len(done)
        self.sparse_processed += sum(entry.sparse for _, entry, _ in done)
        with paused(recorder):
            if isinstance(drift, Exception) or max(drift) >= SWEEP_TOL:
                block.fail(f"chunk {k}: invariance sweep drift {drift!r}", ops=len(good))
            for j, entry, result in done:
                error = repr(result) if isinstance(result, Exception) else self.check(entry, result)
                if error:
                    block.fail(f"state {j} ({entry.source}): {error}")
        block.failed = min(block.failed, block.ops)
        return block

    def check(self, entry: PoolEntry, r: StateResult) -> Optional[str]:
        """Why the per-state outputs are wrong, or None when they are right."""
        if abs(abs(r.report.I1) - entry.abs_i1) > INVARIANT_TOL or abs(abs(r.report.I2) - entry.abs_i2) > INVARIANT_TOL:
            return f"SU move changed |I1|, |I2| from ({entry.abs_i1}, {entry.abs_i2})"
        canon = invariants.invariant_report(r.params.state)
        if abs(abs(canon.I1) - abs(r.report.I1)) > INVARIANT_TOL or abs(abs(canon.I2) - abs(r.report.I2)) > INVARIANT_TOL:
            return "canonical_form changed |I1| or |I2|"
        reached = operators.apply(r.params.element, r.moved)
        if np.max(np.abs(reached.dense() - r.params.state.dense())) > INVARIANT_TOL:
            return "canonical element does not reproduce the canonical state"
        if not _close(r.membership.invariants.I1, r.report.I1, INVARIANT_TOL):
            return "membership report disagrees with the invariant report"
        if any(not 2.0 - INVARIANT_TOL <= v <= TSIRELSON + INVARIANT_TOL for v in r.chsh):
            return f"CHSH values {r.chsh} outside [2, 2 sqrt 2]"
        if not r.stabilized:
            return "generic_eq13 did not fix the canonical state"
        if serialize.state_to_json(serialize.state_from_json(r.saved)) != r.saved:
            return "saved canonical state does not round-trip"
        return None


# ------------------------------------------------------------- monotone-mc


class MonotoneMcWorkload:
    """Fixed-size ``run_monotone_trials`` calls, one master seed per call."""

    name = "monotone-mc"
    blocks_per_round = 1
    in_process = True
    TRIALS = 250
    STRENGTH = 0.5
    REPLAYS = 3

    def __init__(self, seed: int, trials: int = TRIALS) -> None:
        self.seed = seed
        self.trials = trials
        self.expected: Dict[str, int] = {"records": trials}

    def metadata(self) -> Dict[str, object]:
        return {"trials_per_call": self.trials, "strength": self.STRENGTH, "threads": 1}

    def warm_up(self) -> None:
        monte_carlo.run_monotone_trials(trials=20, master_seed=mix(self.seed, 30), strength=self.STRENGTH)

    def block(self, k: int, recorder: Optional[SpanRecorder] = None) -> Block:
        block = Block(ops=self.trials)
        master = mix(self.seed, 31, k)
        if recorder is not None:
            recorder.op = k
        start = time.perf_counter()
        try:
            summary = monte_carlo.run_monotone_trials(
                trials=self.trials, master_seed=master, strength=self.STRENGTH
            )
        except Exception as exc:  # a raising call fails all of its trials
            summary = exc
        elapsed = time.perf_counter() - start
        block.busy_s = elapsed
        block.latencies_s.append(elapsed / self.trials)
        with paused(recorder):
            if isinstance(summary, Exception):
                block.fail(f"call {k}: {summary!r}", ops=self.trials)
            else:
                self.check(k, master, summary, block)
        block.failed = min(block.failed, block.ops)
        return block

    def check(self, k: int, master: int, summary: monte_carlo.MonteCarloSummary, block: Block) -> None:
        records = summary.records
        if len(records) != self.expected["records"] or [r.index for r in records] != list(range(len(records))):
            block.fail(f"call {k}: {len(records)} records for {self.trials} trials",
                       ops=abs(self.trials - len(records)) or 1)
        if summary.failures or summary.max_margin > monte_carlo.MARGIN_TOL:
            block.fail(f"call {k}: {summary.failures} failures, max margin {summary.max_margin}",
                       ops=max(summary.failures, 1))
        rng = np.random.default_rng(mix(self.seed, 32, k))
        for i in rng.choice(len(records), size=min(self.REPLAYS, len(records)), replace=False):
            rec = records[int(i)]
            s_i = monte_carlo.derive_seed(master, rec.index)
            mode = monte_carlo.derive_seed(s_i, 2) % 3
            psi = states.random_state(SHAPE_321, np.random.default_rng(monte_carlo.derive_seed(s_i, 0)))
            inst = monte_carlo.random_instrument(monte_carlo.derive_seed(s_i, 1), mode, self.STRENGTH)
            m1, m2 = monte_carlo.monotonicity_trial(psi, inst)
            if (rec.seed != s_i or rec.mode != mode or abs(rec.margin1 - m1) > REPLAY_TOL
                    or abs(rec.margin2 - m2) > REPLAY_TOL):
                block.fail(f"call {k}: trial {rec.index} does not replay")


def make(name: str, seed: int, workdir: str, src: str):
    """The named workload with its inputs generated from ``seed``."""
    if name == "cli":
        return CliWorkload(seed, workdir, src)
    if name == "batch-analysis":
        return BatchAnalysisWorkload(seed)
    if name == "monotone-mc":
        return MonotoneMcWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

