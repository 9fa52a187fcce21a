"""Correctness checks on the benchmark's recorded answers.

Each check tests a property the method must have, or compares against an
answer computed apart from the server (a fresh in-process engine with its
caches off, or one rebuilt from scratch).  None compares against a stored
copy of an earlier run's output.  Checks append to a :class:`Report`
instead of raising, so one run lists every failure it saw.
"""

from __future__ import annotations

from repro.attacks.scenarios import SCENARIO_LIBRARY


class Report:
    """Failed checks, by name, with the first few messages of each."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}
        self.passed: dict[str, int] = {}

    def check(self, name: str, condition: bool, message: str = "") -> bool:
        if condition:
            self.passed[name] = self.passed.get(name, 0) + 1
        else:
            messages = self.failures.setdefault(name, [])
            if len(messages) < 3:
                messages.append(message)
        return condition

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"passed": dict(sorted(self.passed.items())), "failed": self.failures}


def table1_shape(report: Report, rows: list[dict]) -> None:
    """The paper's Table 1 ordering on the base centrifuge.

    NI RT Linux > Windows 7 > Cisco ASA >> LabVIEW (read as at least ten
    times more), and each cRIO controller at most 30 vulnerabilities.
    """
    vulns = {row["attribute"]: row["vulnerabilities"] for row in rows}
    needed = ("NI RT Linux OS", "Windows 7", "Cisco ASA", "Labview", "NI cRIO 9063", "NI cRIO 9064")
    if not report.check("table1_shape", all(name in vulns for name in needed), f"rows {sorted(vulns)}"):
        return
    report.check(
        "table1_shape",
        vulns["NI RT Linux OS"] > vulns["Windows 7"] > vulns["Cisco ASA"] >= 10 * max(vulns["Labview"], 1),
        f"ordering broken: {vulns}",
    )
    report.check(
        "table1_shape",
        vulns["NI cRIO 9063"] <= 30 and vulns["NI cRIO 9064"] <= 30,
        f"cRIO counts above 30: {vulns}",
    )


def posture_totals(report: Report, posture: dict, histogram: dict | None, where: str) -> None:
    """System totals against per-component counts; histogram against totals."""
    components = posture["components"]
    for kind in ("attack_patterns", "weaknesses", "vulnerabilities"):
        total = posture[f"total_{kind}"]
        counts = [component[kind] for component in components]
        report.check(
            "consistent_totals",
            all(count >= 0 for count in counts)
            and (max(counts, default=0) <= total <= sum(counts)),
            f"{where}: total_{kind}={total} against component counts {counts}",
        )
        if len(components) == 1:
            report.check(
                "consistent_totals", total == counts[0], f"{where}: single component {kind} {counts[0]} != {total}"
            )
    if histogram is not None:
        report.check(
            "consistent_totals",
            sum(histogram.values()) == posture["total_vulnerabilities"],
            f"{where}: severity histogram sums to {sum(histogram.values())}, "
            f"{posture['total_vulnerabilities']} unique vulnerabilities",
        )


def whatif_monotone(report: Report, comparison: dict, component: str, where: str) -> None:
    """Dropping one attribute of one component never adds matches to it,
    and leaves every other component's matches unchanged."""
    for metrics in (comparison["baseline_metrics"], comparison["variant_metrics"]):
        posture_totals(report, metrics, None, where)
    seen = False
    for delta in comparison["component_deltas"]:
        if delta["name"] == component:
            seen = True
            report.check(
                "whatif_monotone",
                delta["variant_total"] <= delta["baseline_total"],
                f"{where}: {component} gained matches {delta['baseline_total']} -> {delta['variant_total']}",
            )
        else:
            report.check(
                "whatif_monotone",
                delta["variant_total"] == delta["baseline_total"],
                f"{where}: untouched {delta['name']} changed",
            )
    report.check("whatif_monotone", seen, f"{where}: no delta for {component}")


def chains_valid(report: Report, request: dict, response: dict, where: str) -> None:
    """Entry point to target along model connections, within max_length."""
    model = request["model"]
    entries = {c["name"] for c in model["components"] if c.get("entry_point")}
    links = set()
    for connection in model["connections"]:
        links.add((connection["source"], connection["target"]))
        if connection.get("bidirectional", True):
            links.add((connection["target"], connection["source"]))
    chains = response["chains"]
    report.check(
        "valid_chains",
        len(chains) <= request["limit"] and len(chains) <= response["total_chains"]
        and response["summary"]["count"] == response["total_chains"],
        f"{where}: {len(chains)} chains, total {response['total_chains']}, limit {request['limit']}",
    )
    for chain in chains:
        path = chain["path"]
        report.check(
            "valid_chains",
            path[0] in entries
            and path[-1] == request["target"]
            and len(path) - 1 <= request["max_length"]
            and all((a, b) in links for a, b in zip(path, path[1:])),
            f"{where}: invalid chain {path}",
        )


def simulation_outcome(report: Report, request: dict, response: dict, where: str) -> None:
    """Nominal runs are hazard- and trip-free; attacks cause their hazards."""
    kinds = {event["kind"] for event in response["hazard_events"]}
    if request["scenario"] == "nominal":
        report.check(
            "simulation_outcomes",
            not kinds and not response["sis_tripped"],
            f"{where}: nominal run shows {sorted(kinds)}, tripped={response['sis_tripped']}",
        )
    else:
        expected = set(SCENARIO_LIBRARY[request["scenario"]].expected_hazards)
        report.check(
            "simulation_outcomes",
            expected <= kinds,
            f"{where}: {request['scenario']} shows {sorted(kinds)}, expected {sorted(expected)}",
        )


def consequences_outcome(report: Report, request: dict, response: dict, where: str) -> None:
    """Every assessed scenario shows the hazards its library entry lists."""
    assessments = response["assessments"]
    report.check("simulation_outcomes", bool(assessments), f"{where}: no assessments for {request['record']}")
    for assessment in assessments:
        expected = set(SCENARIO_LIBRARY[assessment["scenario"]].expected_hazards)
        report.check(
            "simulation_outcomes",
            assessment["record_id"] == request["record"] and expected <= set(assessment["hazards"]),
            f"{where}: {assessment['scenario']} shows {assessment['hazards']}, expected {sorted(expected)}",
        )


def renamed_model(model: dict, suffix: str = " (renamed)") -> dict:
    """The same model with every component renamed."""
    names = {component["name"]: component["name"] + suffix for component in model["components"]}
    return {
        **model,
        "components": [{**component, "name": names[component["name"]]} for component in model["components"]],
        "connections": [
            {**connection, "source": names[connection["source"]], "target": names[connection["target"]]}
            for connection in model["connections"]
        ],
    }


def component_counts(posture: dict) -> list[tuple[int, int, int]]:
    return [
        (component["attack_patterns"], component["weaknesses"], component["vulnerabilities"])
        for component in posture["components"]
    ]
