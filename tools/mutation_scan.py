"""One-token mutation scan of the verify suite's math, and its kill matrix.

    python tools/mutation_scan.py > scan.jsonl

Mutants come from the bodies of the math functions in gradients, gaco, semantic,
fusion and variational (validators and samplers left out): + and -, * and /, <
and <=, > and >=, == and != swap, max and min (maximum and minimum) swap, a float
literal doubles, an integer literal grows by one. verify._edited_code plants each
with its whole source line as `old`; an edit of a line that occurs more than once
in its function, or one that does not compile, is skipped and counted. Output: a
JSON line per mutant with the checks that failed at each seed 0-9, or "survived";
one per FAULTS row; a summary with the score, each check's count of mutants no
other check kills, and each function's count of surviving mutants.
"""

import inspect
import io
import json
import sys
import time
import tokenize
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from expalign import fusion, gaco, gradients, semantic, variational, verify  # noqa: E402

MODULES = (gradients, gaco, semantic, fusion, variational)
SEEDS = range(10)
OPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
NAMES = {"max": "min", "min": "max", "maximum": "minimum", "minimum": "maximum"}


def math_functions():
    for module in MODULES:
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith(("coerce", "check_", "_check")) and name != "random_simplex"):
                yield fn


def _edit(tok):
    if tok.type == tokenize.OP:
        return OPS.get(tok.string)
    if tok.type == tokenize.NAME:
        return NAMES.get(tok.string)
    if tok.type == tokenize.NUMBER:
        try:
            return str(int(tok.string, 0) + 1)
        except ValueError:
            value = float(tok.string)
            return repr(value * 2) if value else None  # 0.0 * 2 is no edit
    return None


def mutants(fn, skipped):
    """(file line, old line, new line) for each one-token edit of fn's body."""
    source = inspect.getsource(fn)
    lines = source.splitlines()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    body = next(t.start[0] for t in tokens if t.type == tokenize.NEWLINE) + 1  # first row after the def line
    for tok in tokens:
        (row, c0), (end_row, c1) = tok.start, tok.end
        new = _edit(tok) if row >= body and row == end_row else None
        if new is not None and source.count(lines[row - 1]) != 1:
            skipped["repeated_line"] += 1
        elif new is not None:
            old = lines[row - 1]
            yield fn.__code__.co_firstlineno + row - 1, old, old[:c0] + new + old[c1:]


def failed_checks(edits, seeds=SEEDS):
    """{seed: [names of failed checks]} with edits (function, old, new) planted; {} if none failed."""
    originals = [(fn, fn.__code__) for fn, _, _ in edits]
    try:
        for fn, old, new in edits:
            fn.__code__ = verify._edited_code(fn, old, new)
        failed = {seed: [r.name for r in verify.run_suite(seed=seed) if not r.passed] for seed in seeds}
    finally:
        for fn, code in originals:
            fn.__code__ = code
    return {seed: names for seed, names in failed.items() if names}


def scan(functions, out, seeds=SEEDS, faults=verify.FAULTS):
    """Write a record per mutant of functions, one per row of faults, and a summary to out."""
    start, skipped, alone, survived, fault_alone = time.perf_counter(), Counter(), Counter(), Counter(), {}
    total = killed = 0
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for fn in functions:
            for line, old, new in mutants(fn, skipped):
                try:
                    failed = failed_checks([(fn, old, new)], seeds)
                except SyntaxError:
                    skipped["uncompilable"] += 1
                    continue
                killers = {name for names in failed.values() for name in names}
                total, killed = total + 1, killed + bool(killers)
                alone.update(killers if len(killers) == 1 else ())
                function = f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"
                if not killers:
                    survived[function] += 1
                out.write(json.dumps({"function": function, "line": line, "old": old.strip(), "new": new.strip(),
                                      "failed": failed or "survived"}) + "\n")
        for name, (group, edits) in faults.items():
            failed = failed_checks(edits, seeds)
            killers = {check for names in failed.values() for check in names}
            if len(killers) == 1:
                fault_alone[name] = killers.pop()
            out.write(json.dumps({"fault": name, "group": group, "failed": failed or "survived"}) + "\n")
    summary = {"mutants": total, "killed": killed, "skipped": dict(skipped),
               "seconds": round(time.perf_counter() - start, 1), "killed_alone": dict(alone.most_common()),
               "fault_failed_alone": fault_alone, "survived_by_function": dict(survived.most_common())}
    out.write(json.dumps(summary) + "\n")
    return summary


if __name__ == "__main__":
    scan(list(math_functions()), sys.stdout)
