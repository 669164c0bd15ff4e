"""CSV and markdown emission for experiment runs.

The measurement CSV (schema ``experiment,h,p,k,j,alpha,quantity,value``) is
byte-deterministic: floats are written with shortest round-trip repr and row
order follows the pipeline's insertion order.  Markdown reports carry the
same content plus assertion verdicts; only the lines marked as timing /
generated metadata differ between reruns.
"""

from __future__ import annotations

import math

from .config import RunReport

__all__ = ["measurements_csv", "report_markdown", "write_report", "defect_csv"]

CSV_HEADER = "experiment,h,p,k,j,alpha,quantity,value"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def measurements_csv(report: RunReport) -> str:
    lines = [CSV_HEADER]
    name = report.config.name
    for row in report.rows:
        if row.error:
            # the reason may contain commas; the markdown report lists it
            lines.append(f"{name},{_fmt(row.h)},,,,,sweep_error,nan")
            continue
        for (quantity, p, k, j, alpha), value in row.measurements.items():
            lines.append(
                f"{name},{_fmt(row.h)},{_fmt(p)},{_fmt(k)},{_fmt(j)},{_fmt(alpha)},"
                f"{quantity},{_fmt(float(value))}"
            )
    return "\n".join(lines) + "\n"


def report_markdown(report: RunReport) -> str:
    cfg = report.config
    out = [f"# Run report: {cfg.name}", ""]
    out.append(f"- h values: {', '.join(_fmt(h) for h in cfg.h_list)}")
    out.append(f"- stages: {' -> '.join(s.kind for s in cfg.stages)}")
    out.append(f"- timing: sweep {report.timings['sweep_s']:.2f} s, "
               f"assertions {report.timings['assertions_s']:.2f} s")
    out.append("")
    errs = [row for row in report.rows if row.error]
    if errs:
        out.append("## Stage refusals")
        for row in errs:
            out.append(f"- h = {_fmt(row.h)}: {row.error}")
        out.append("")
    out.append("## Assertions")
    out.append("")
    out.append("| name | kind | measured | expected | tol | pass | detail |")
    out.append("|---|---|---|---|---|---|---|")
    for a in report.assertions:
        detail = a.detail.replace("|", r"\|")  # a reason may quote |g1 - g2|
        out.append(
            f"| {a.name} | {a.kind} | {_fmt(a.measured)} | {_fmt(a.expected)} | "
            f"{_fmt(a.tol)} | {'PASS' if a.passed else 'FAIL'} | {detail} |"
        )
    out.append("")
    out.append(f"Overall: {'PASS' if report.passed else 'FAIL'}")
    out.append("")
    out.append("## Config")
    out.append("")
    out.append("```")
    out.append(cfg.source_text.rstrip())
    out.append("```")
    return "\n".join(out) + "\n"


def write_report(report: RunReport, out_dir) -> tuple[str, str]:
    """Write <name>.csv and <name>.md under out_dir; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.config.name)
    csv_path, md_path = base + ".csv", base + ".md"
    with open(csv_path, "w", newline="") as fh:
        fh.write(measurements_csv(report))
    with open(md_path, "w", newline="") as fh:
        fh.write(report_markdown(report))
    return csv_path, md_path


def defect_csv(rows) -> str:
    """CSV for defect reports: h, alpha, M1, M2, defect, ratio_to_power."""
    lines = ["h,alpha,M1,M2,defect,ratio_to_power"]
    for h, alpha, rep in rows:
        lines.append(f"{_fmt(h)},{_fmt(alpha)},{rep.powers[0]},{rep.powers[1]},"
                     f"{_fmt(rep.defect)},{_fmt(rep.ratio_to_power)}")
    return "\n".join(lines) + "\n"
