"""Spans around the calls one heegner module makes into another.

The library is not edited: ``Tracer.install`` replaces, in the calling
module's namespace, each name that module imported from another layer with a
wrapper that records a span (name, parent, start, end, operation) and a few
argument or result notes.  ``Tracer.remove`` puts the originals back.  Spans
stay in memory; ``layer_metrics`` reduces them to the per-layer figures and
``write`` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (calling module, imported name, span name).  Each span name is
# "<callee layer>.<function>"; the caller's namespace is where the call
# crosses the layer boundary.
BOUNDARIES = (
    ("classpoly", "enumerate_classes", "quadforms.enumerate_classes"),
    ("classpoly", "al_pair_classes", "quadforms.al_pair_classes"),
    ("classpoly", "heegner_rep", "quadforms.heegner_rep"),
    ("classpoly", "jp_at_form", "hauptmodul.jp_at_form"),
    ("sssearch", "build_PD", "classpoly.build_PD"),
    ("sssearch", "build_Pl", "classpoly.build_Pl"),
    ("sssearch", "evaluate", "classpoly.evaluate"),
    ("sssearch", "is_perfect_square", "modpoly.is_perfect_square"),
    ("sssearch", "is_square_times_linear", "modpoly.is_square_times_linear"),
    ("sssearch", "mod_p_square_check", "modpoly.mod_p_square_check"),
    ("sssearch", "factorize", "intmath.factorize"),
    ("sssearch", "lift_j_from_h_level3", "ssverify.lift_j_from_h_level3"),
    ("sssearch", "verify_certificate", "ssverify.verify_certificate"),
    ("ssverify", "hasse_nonzero_fq", "kernels.hasse_nonzero_fq"),
    ("ssverify", "hasse_nonzero_fq2", "kernels.hasse_nonzero_fq2"),
)

# Functions inside sssearch that are counted, not timed: every l the sieve
# tests, and every l skipped after an incomplete factorization left no prime
# (extract_primes returns the skip flag last).
COUNTED = (
    ("sssearch", "ell_admissible", "sssearch.ells_sieved", lambda result: True),
    ("sssearch", "extract_primes", "sssearch.skipped", lambda result: result[3]),
)

PER_LAYER = (
    "hauptmodul.jp_s", "hauptmodul.jp_calls", "hauptmodul.bits_mean",
    "classpoly.build_s", "classpoly.self_s", "classpoly.attempts",
    "classpoly.retried_builds", "classpoly.max_bits", "classpoly.builds",
    "classpoly.distinct_D",
    "quadforms.s", "quadforms.calls",
    "intmath.factorize_s", "intmath.factorize_calls", "intmath.incomplete",
    "intmath.incomplete_s",
    "kernels.hasse_s", "kernels.hasse_len",
    "ssverify.verify_s", "ssverify.primes_verified", "ssverify.primes_unverified",
    "modpoly.square_s", "modpoly.checks",
    "sssearch.self_s", "sssearch.ells_sieved", "sssearch.nonneg_builds",
    "sssearch.skipped",
)


def _note(name, args, result):
    """Argument or result facts a layer metric needs, kept on the span."""
    if name == "hauptmodul.jp_at_form":
        return {"bits": args[2]}
    if name == "classpoly.build_PD":
        return {"p": result.p, "D": result.D}
    if name == "classpoly.evaluate":
        return {"nonneg": result >= 0}
    if name == "intmath.factorize":
        return {"incomplete": not result.complete}
    if name.startswith("kernels."):
        return {"q": args[0]}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, op, note]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), None, self.op, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        span[5] = _note(name, args, result)
        return result

    def install(self, modules):
        for mod, attr, name in BOUNDARIES:
            self._patch(modules[mod], attr, self._spanned(name, getattr(modules[mod], attr)))
        for mod, attr, name, counts in COUNTED:
            self._patch(modules[mod], attr,
                        self._counted(name, counts, getattr(modules[mod], attr)))

    def remove(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _counted(self, name, counts, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counts(result):
                self.counts[name] += 1
            return result
        return counted

    def write(self, path):
        with open(path, "w") as out:
            for i, (name, parent, start, end, op, note) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                      "start": start, "end": end, "note": note}) + "\n")

    def layer_metrics(self, rounds, search_results, wall_and_scale):
        """Per-layer figures per round of the workload.

        ``wall_and_scale(start, end)`` gives a span's wall time and the factor
        that turns it into the time the benchmark reports; a span's self time
        is its wall time less its children's, scaled by its own factor.

        ``search_results`` are the certificate lists the run's searches
        returned; verification statuses are read from them so that primes a
        level reports without calling ssverify still count as unverified.
        """
        measured = [wall_and_scale(span[2], span[3]) for span in self.spans]
        walls = [wall for wall, _ in measured]
        scales = [scale for _, scale in measured]
        child_wall = [0.0] * len(self.spans)
        jp_bits = {}  # build span -> set of precisions its jp calls used
        for i, span in enumerate(self.spans):
            name, parent = span[:2]
            if parent >= 0:
                child_wall[parent] += walls[i]
                if name == "hauptmodul.jp_at_form" and span[5]:
                    jp_bits.setdefault(parent, set()).add(span[5]["bits"])
        total, calls, self_time = Counter(), Counter(), Counter()
        incomplete = incomplete_s = hasse_len = nonneg = 0
        bits, distinct = [], set()
        for i, (name, parent, start, end, op, note) in enumerate(self.spans):
            note = note or {}  # a call that raised has no result notes
            layer = name.split(".")[0]
            total[layer] += walls[i] * scales[i]
            total[name] += walls[i] * scales[i]
            calls[layer] += 1
            calls[name] += 1
            self_time[layer] += (walls[i] - child_wall[i]) * scales[i]
            if name == "hauptmodul.jp_at_form" and note:
                bits.append(note["bits"])
            elif name == "classpoly.build_PD" and note:
                distinct.add((note["p"], note["D"]))
            elif name == "classpoly.evaluate":
                nonneg += note.get("nonneg", False)
            elif name == "intmath.factorize" and note.get("incomplete"):
                incomplete += 1
                incomplete_s += walls[i] * scales[i]
            elif layer == "kernels":
                hasse_len += note.get("q", 0)
        attempts = [len(jp_bits.get(i, ())) for i, s in enumerate(self.spans)
                    if s[0] == "classpoly.build_PD"]
        statuses = Counter(status for certs in search_results for cert in certs
                           for status in cert.verification.values())
        verified = statuses["supersingular"] + statuses["ordinary"]
        per_round = {
            "hauptmodul.jp_s": total["hauptmodul"],
            "hauptmodul.jp_calls": calls["hauptmodul"],
            "classpoly.build_s": total["classpoly.build_PD"] + total["classpoly.build_Pl"],
            "classpoly.self_s": self_time["classpoly"],
            "classpoly.attempts": sum(attempts),
            "classpoly.retried_builds": sum(1 for a in attempts if a > 1),
            "classpoly.builds": calls["classpoly.build_PD"],
            "quadforms.s": total["quadforms"],
            "quadforms.calls": calls["quadforms"],
            "intmath.factorize_s": total["intmath"],
            "intmath.factorize_calls": calls["intmath"],
            "intmath.incomplete": incomplete,
            "intmath.incomplete_s": incomplete_s,
            "kernels.hasse_s": total["kernels"],
            "kernels.hasse_len": hasse_len,
            "ssverify.verify_s": total["ssverify"],
            "ssverify.primes_verified": verified,
            "ssverify.primes_unverified": sum(statuses.values()) - verified,
            "modpoly.square_s": total["modpoly"],
            "modpoly.checks": calls["modpoly"],
            "sssearch.self_s": self_time["sssearch"],
            "sssearch.ells_sieved": self.counts["sssearch.ells_sieved"],
            "sssearch.nonneg_builds": nonneg,
            "sssearch.skipped": self.counts["sssearch.skipped"],
        }
        metrics = {k: v / rounds for k, v in per_round.items()}
        metrics["hauptmodul.bits_mean"] = sum(bits) / len(bits) if bits else 0.0
        metrics["classpoly.max_bits"] = max(bits, default=0)
        metrics["classpoly.distinct_D"] = len(distinct)
        return {k: metrics[k] for k in PER_LAYER}
