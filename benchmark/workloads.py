"""Workload inputs, the untraced closed loop, and the output checks.

A workload is a list of dpris CLI commands built from the workload seed.
One iteration of the closed loop runs every command once, one after the
next; iterations repeat until the time budget is spent.  Each iteration
also times the workload's set-up on its own (config load plus
``LinkEngine`` construction, the work a command does before its first
Monte Carlo chunk), so work moved into set-up shows in ``setup_s``.

End-to-end metrics (medians over iterations):

    wall_s        wall time of one iteration (all commands of the workload)
    setup_s       config load + LinkEngine construction, summed over commands
    items_per_s   work done per second of wall time: simulated bits for the
                  Monte Carlo workloads, oracle cases for oracle
    peak_rss_MiB  peak resident memory of this process, which runs only one
                  workload

The rates mc_bits_per_s and oracle_cases_per_s, items / (wall - setup), are
printed and recorded too, but are not end-to-end metrics: on scan-b set-up
is about 75% of the wall time, and the difference of the two spread over
more than 10x between iterations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dpris.campaign import LinkEngine
from dpris.cli import main as cli_main
from dpris.config import load_config
from dpris.receiver import WILSON_Z, theoretical_ber_16qam

MIN_ITERATIONS = 3
# Cheap set-ups are repeated until a sample spans this long, then the
# median repetition is kept, so sub-millisecond set-ups are still resolved.
SETUP_SAMPLE_S = 0.1
# sweep-a gates every point against the exact AWGN curve.  The repository's
# C5 acceptance test uses 3 SE at one fixed seed; over arbitrary workload
# seeds 3 SE fails about one sweep in a hundred by chance (2 of 200 seeds of
# the 7-point default grid), so the benchmark gates at 5 SE, a family-wise
# false-alarm rate below 1e-5 per sweep, and reports the 3-SE count beside it.
THEORY_GATE_SE = 5.0
C5_SE = 3.0


@dataclass
class Command:
    """One CLI invocation: ``argv`` for ``dpris.cli.main``, minus ``--threads``."""

    argv: list[str]
    config: Path
    out: Path | None = None
    payload: Path | None = None


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    wall_s: float


@dataclass
class Tally:
    """Commands attempted, commands failed, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, workload: "Workload", command: Command, state: dict, threads: int = 1) -> Outcome:
        """Run one command through ``dpris.cli.main``, time it, check its output.

        A command fails when it exits non-zero, raises, or its output check
        finds a problem.
        """
        self.attempted += 1
        argv = [*command.argv, "--threads", str(threads)]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
        except Exception:  # a crash is a failed command; keep measuring the rest
            rc = -1
            err.write(traceback.format_exc())
        outcome = Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - started)
        if rc != 0:
            problems = [f"dpris {' '.join(argv)} exited {rc}: {outcome.stderr.strip()[-500:]}"]
        else:
            problems = workload.check(command, outcome, state)
        self.record(problems)
        return outcome

    def record(self, problems: list[str]):
        """Count one more failed command if ``problems`` is non-empty."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    details: dict
    report: list[str]
    threads: list[int]


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def _campaign_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def read_ber_csv(path: Path) -> list[dict]:
    """Rows of a ber-sweep CSV (provenance comment lines skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    name: str
    command_kind: str
    items_label = ("mc_bits_per_s", "bit/s")
    thread_check = False

    def generate(self, seed: int, workdir: Path) -> list[Command]:
        raise NotImplementedError

    def setup(self, commands: list[Command]) -> None:
        """The work every command does before its first Monte Carlo chunk."""
        for command in commands:
            LinkEngine(load_config(str(command.config)))

    def items(self, commands: list[Command]) -> int:
        raise NotImplementedError

    def check(self, command: Command, outcome: Outcome, state: dict) -> list[str]:
        """Problems with one successful command's output.

        ``state`` lives for the whole run, so a check can compare a repeat
        with the first run of the same command.
        """
        raise NotImplementedError


class SweepWorkload(Workload):
    command_kind = "ber-sweep"

    def __init__(self, name: str, configs, theory_gate: bool, thread_check: bool):
        self.name = name
        self._configs = configs
        self.theory_gate = theory_gate
        self.thread_check = thread_check

    def generate(self, seed, workdir):
        commands = []
        for i, config in enumerate(self._configs(np.random.default_rng(seed))):
            path = _write_config(workdir / f"sweep{i:02d}.json", config)
            out = workdir / f"sweep{i:02d}.csv"
            commands.append(
                Command(["ber-sweep", "--config", str(path), "--out", str(out), "--force"], path, out)
            )
        return commands

    def items(self, commands):
        return sum(int(row["bits"]) for c in commands for row in read_ber_csv(c.out))

    def check(self, command, outcome, state):
        rows = read_ber_csv(command.out)
        bers = [float(row["ber"]) for row in rows]
        problems = []
        if not rows or not all(math.isfinite(b) and 0.0 <= b <= 1.0 for b in bers):
            problems.append(f"{command.out.name}: BER not finite in [0, 1]: {bers}")
        if self.theory_gate:
            problems += self._check_theory(command, rows, state)
        data = command.out.read_bytes()
        if state.setdefault(("csv", command.out.name), data) != data:
            problems.append(f"{command.out.name}: CSV bytes differ from the first run of this command")
        return problems

    def _check_theory(self, command, rows, state):
        problems = []
        beyond_c5 = 0
        for row in rows:
            ebn0, ber = float(row["ebn0_db"]), float(row["ber"])
            se = float(row["ci_halfwidth"]) / WILSON_Z
            dev = abs(ber - theoretical_ber_16qam(ebn0))
            beyond_c5 += dev > C5_SE * se
            if dev > THEORY_GATE_SE * se:
                problems.append(
                    f"{command.out.name}: {ebn0:g} dB BER {ber:.4e} is {dev / se:.2f} SE off theory "
                    f"(gate {THEORY_GATE_SE:g} SE)"
                )
        state["points_beyond_3se"] = beyond_c5
        return problems


def _sweep_a_configs(rng):
    # Default 7-point grid (4..16 dB), fidelity A, calibrated CSI; 8M bits per
    # point make one sweep last about 2 s, so set-up is about 1% of it.
    return [{"mode": "ber_sweep", "seed": _campaign_seeds(rng, 1)[0], "bits_per_point": 8_000_000}]


SCAN_ISOLATIONS_DB = (10.0, 13.0, 16.0, 19.0, 22.0, 25.0)
SCAN_DACS = ("ideal", 8, 6)
SCAN_RELATIONS = ("independent", "identical")


def _scan_b_configs(rng):
    # Coupling design scan: isolation x DAC x stream relation, each a short
    # coupled fidelity-B sweep with pilot CSI, so LinkEngine set-up dominates.
    grid = [float(x) for x in range(8, 29, 2)]
    cases = [(i, d, r) for i in SCAN_ISOLATIONS_DB for d in SCAN_DACS for r in SCAN_RELATIONS]
    return [
        {
            "mode": "ber_sweep",
            "seed": seed,
            "fidelity": "B",
            "coupling": True,
            "csi": "pilot",
            "stream_relation": relation,
            "ebn0_grid_db": grid,
            "bits_per_point": 20_000,
            "hardware": {"isolation_db": isolation, "dac_bits": dac},
        }
        for (isolation, dac, relation), seed in zip(cases, _campaign_seeds(rng, len(cases)))
    ]


LOOPBACK_PAYLOAD_BYTES = 4 << 20


class LoopbackWorkload(Workload):
    name = "loopback"
    command_kind = "file-loopback"

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        payload = workdir / "payload.bin"
        payload.write_bytes(rng.bytes(LOOPBACK_PAYLOAD_BYTES))
        # Default link; fidelity and mode are the values run_file_loopback
        # forces anyway, written out so the set-up timing builds the same engine.
        config = {"mode": "file_loopback", "fidelity": "B", "seed": _campaign_seeds(rng, 1)[0]}
        path = _write_config(workdir / "loopback.json", config)
        out = workdir / "payload.out"
        argv = ["file-loopback", str(payload), "--config", str(path), "--out", str(out), "--force"]
        return [Command(argv, path, out, payload)]

    def items(self, commands):
        return sum(8 * c.payload.stat().st_size for c in commands)

    def check(self, command, outcome, state):
        sent = np.frombuffer(command.payload.read_bytes(), dtype=np.uint8)
        got = np.frombuffer(command.out.read_bytes(), dtype=np.uint8)
        reported = _reported_bit_errors(outcome.stdout)
        if got.size != sent.size or reported is None:
            return [f"loopback: {got.size} of {sent.size} bytes back, report {reported}"]
        diff = int(np.unpackbits(sent ^ got).sum())
        state["bit_errors"] = diff
        if reported != (diff, 8 * sent.size):
            return [
                f"loopback: reported (bit errors, bits) {reported}, "
                f"payload diff ({diff}, {8 * sent.size})"
            ]
        return []


def _reported_bit_errors(stdout: str):
    for line in stdout.splitlines():
        words = line.split()
        if "bit" in words and "errors" in words and "bits" in words:
            i = words.index("bit")
            return int(words[i - 1]), int(words[i + 3])
    return None


ORACLE_CASES = 4000
ORACLE_SUITES = 3


class OracleWorkload(Workload):
    name = "oracle"
    command_kind = "oracle-check"
    items_label = ("oracle_cases_per_s", "cases/s")

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        config = {
            "mode": "oracle_check",
            "seed": _campaign_seeds(rng, 1)[0],
            "oracle": {
                "harmonic_cases": ORACLE_CASES,
                "parseval_cases": ORACLE_CASES,
                "model_identity_cases": ORACLE_CASES,
            },
        }
        path = _write_config(workdir / "oracle.json", config)
        return [Command(["oracle-check", "--config", str(path)], path)]

    def setup(self, commands):
        """oracle-check builds no LinkEngine: its set-up is the config load."""
        for command in commands:
            load_config(str(command.config))

    def items(self, commands):
        return ORACLE_SUITES * ORACLE_CASES * len(commands)

    def check(self, command, outcome, state):
        lines = outcome.stdout.splitlines()
        passed = [line for line in lines if line.startswith("PASS ")]
        if len(lines) != ORACLE_SUITES or len(passed) != ORACLE_SUITES:
            return [f"oracle-check: expected {ORACLE_SUITES} PASS lines, got {lines}"]
        return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SweepWorkload("sweep-a", _sweep_a_configs, theory_gate=True, thread_check=True),
        SweepWorkload("scan-b", _scan_b_configs, theory_gate=False, thread_check=False),
        LoopbackWorkload(),
        OracleWorkload(),
    )
}


def time_setup(workload: Workload, commands: list[Command]) -> float:
    """One set-up sample: the median of repetitions spanning SETUP_SAMPLE_S."""
    reps = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < SETUP_SAMPLE_S:
        t0 = time.perf_counter()
        workload.setup(commands)
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def run_iteration(workload: Workload, commands, tally: Tally, state: dict, threads: int = 1):
    return [tally.run(workload, command, state, threads) for command in commands]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(samples: list[float]) -> str:
    return (
        f"median {statistics.median(samples):.6g} of n={len(samples)} "
        f"(min {min(samples):.6g}, max {max(samples):.6g})"
    )


def run_untraced(workload: Workload, commands: list[Command], seconds: float) -> Result:
    """Closed loop over the workload's commands for ``seconds``; end-to-end metrics."""
    tally = Tally()
    state: dict = {}
    threads = [1]
    if workload.thread_check:
        # --threads 2 first: the C8 contract says its CSV equals every
        # --threads 1 repeat; it also warms the process up.
        threads.append(2)
        run_iteration(workload, commands, tally, state, threads=2)

    walls, setups, rates, mc_rates = [], [], [], []
    items = None
    iterations = 0
    started = time.perf_counter()
    while iterations < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        iterations += 1
        setup = time_setup(workload, commands)
        outcomes = run_iteration(workload, commands, tally, state)
        if any(o.rc != 0 for o in outcomes):
            continue
        wall = sum(o.wall_s for o in outcomes)
        if items is None:
            items = workload.items(commands)
        walls.append(wall)
        setups.append(setup)
        rates.append(items / wall)
        mc_rates.append(items / (wall - setup))
    if not walls:
        raise RuntimeError(f"{workload.name}: no iteration completed; {tally.failures[:3]}")

    label, unit = workload.items_label
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_MiB": peak_rss_mib(),
    }
    report = [
        f"  {len(commands)} {workload.command_kind} command(s) per iteration, {items} items per iteration",
        f"  wall_s: {describe(walls)}",
        f"  setup_s: {describe(setups)}",
        f"  items_per_s: {describe(rates)}",
        f"  {label} = {statistics.median(mc_rates):.6g} {unit} ({describe(mc_rates)})",
    ]
    if "points_beyond_3se" in state:
        report.append(
            f"  theory gate: every point within {THEORY_GATE_SE:g} SE; "
            f"{state['points_beyond_3se']} point(s) beyond {C5_SE:g} SE"
        )
    details = {
        "samples": {"wall_s": walls, "setup_s": setups, "items_per_s": rates, label: mc_rates},
        "items_per_iteration": items,
        "items_label": label,
        "state": {k: v for k, v in state.items() if isinstance(k, str)},
    }
    return Result(metrics, tally.attempted, tally.failed, tally.failures, details, report, threads)
