"""Checks of ``shor-mps`` reports against computations made apart from the program.

Each check returns a list of problems; an empty list means the report passed.
The orbit, the order and the bond ranks come from the power loop and residue
sets here, never from the program's ``numtheory`` or ``oracle``.
"""

from __future__ import annotations

from law import residue_orbit, two_adic

LOWER = "R"


class Instance:
    """n, a and everything the checks derive from them."""

    def __init__(self, n: int, a: int):
        self.n, self.a = n, a
        self.orbit = residue_orbit(a, n)
        self.residues = set(self.orbit)
        self.r = len(self.orbit)
        self.alpha, self.beta = two_adic(self.r)
        self.l = (n + 1).bit_length()
        self._ranks: dict[tuple, list[int]] = {}

    def cut_ranks(self, labels) -> list[int]:
        """Schmidt rank of every bond: the number of distinct residues a^x, x
        ranging over the bit assignments of the upper qubits on the side of the
        bond away from the lower register."""
        labels = tuple(LOWER if str(x) == LOWER else int(x) for x in labels)
        if labels not in self._ranks:
            rpos = labels.index(LOWER)
            ranks = [0] * (len(labels) - 1)
            for bonds, site_of in ((range(rpos), lambda b: b),
                                   (range(len(labels) - 2, rpos - 1, -1), lambda b: b + 1)):
                reached = {1}
                for b in bonds:
                    mult = pow(self.a, 1 << labels[site_of(b)], self.n)
                    reached |= {v * mult % self.n for v in reached}
                    ranks[b] = len(reached)
            self._ranks[labels] = ranks
        return self._ranks[labels]

    def tally(self, labels) -> int:
        """The paper's element count: sum of chi_left * d * chi_right over sites."""
        bonds = [1] + self.cut_ranks(labels) + [1]
        dims = [self.r if str(x) == LOWER else 2 for x in labels]
        return sum(bonds[k] * d * bonds[k + 1] for k, d in enumerate(dims))


def check_modexp_profile(inst: Instance, ranks, labels, tally, where: str,
                         exact: bool = True) -> list[str]:
    """Ranks must equal the residue counts, and the tally their element count
    (or, when not ``exact``, be at least that count)."""
    want = inst.cut_ranks(labels)
    if len(ranks) != len(want):
        return [f"{where}: {len(ranks)} bonds, want {len(want)}"]
    bad = [b for b, (got, rank) in enumerate(zip(ranks, want)) if got != rank]
    if bad:
        return [f"{where}: modexp ranks differ from residue counts at bonds {bad[:8]}"]
    elements = inst.tally(labels)
    if tally != elements and (exact or tally < elements):
        return [f"{where}: modexp element tally {tally}, want "
                f"{'' if exact else 'at least '}{elements}"]
    return []


def check_sample_record(inst: Instance, rec: dict, where: str) -> list[str]:
    problems = []
    if (rec["n"], rec["a"], rec["l"]) != (inst.n, inst.a, inst.l):
        problems.append(f"{where}: instance {rec['n'], rec['a'], rec['l']} was not requested")
    if rec["measured_residue"] not in inst.residues:
        problems.append(f"{where}: residue {rec['measured_residue']} is not a power of {inst.a}")
    if not 0 <= rec["measured_s"] < 1 << (2 * inst.l):
        problems.append(f"{where}: s = {rec['measured_s']} out of range")
    v = rec["verified_r"]
    if v is not None and (v % inst.r or pow(inst.a, v, inst.n) != 1):
        problems.append(f"{where}: verified_r {v} is not a multiple of r = {inst.r}")
    f = rec["factors"]
    if f is not None and not (1 < f[0] < inst.n and f[0] * f[1] == inst.n):
        problems.append(f"{where}: factors {f} do not split {inst.n}")
    modexp = [p for p in rec["rank_profiles"] if p["stage"] == "modexp"]
    if len(modexp) != 1:
        problems.append(f"{where}: {len(modexp)} modexp rank profiles")
    else:
        # a static modexp only grows, so its peak is the final tally; the
        # dynamic boundary swap may peak above it
        problems += check_modexp_profile(inst, modexp[0]["ranks"], modexp[0]["layout"],
                                         rec["peak_elements"]["modexp"], where,
                                         exact=rec["layout"] == "static")
    return problems


def check_sample_report(inst: Instance, report: dict, layout: str, samples: int,
                        where: str) -> list[str]:
    records = report["layouts"][layout]["records"]
    if len(records) != samples:
        return [f"{where}: {len(records)} records, want {samples}"]
    problems = []
    for k, rec in enumerate(records):
        problems += check_sample_record(inst, rec, f"{where} sample {k}")
    return problems


def check_profile_report(inst: Instance, report: dict, layout: str, where: str) -> list[str]:
    (prof,) = [p for p in report["profiles"] if p["layout"] == layout]
    elements = report["elements"][layout]
    problems = check_modexp_profile(inst, prof["ranks"], prof["labels"],
                                    elements["live"], where)
    if elements["peak"] < elements["live"]:
        problems.append(f"{where}: peak tally {elements['peak']} below live {elements['live']}")
    if elements["lower_register_dim"] != inst.r:
        problems.append(f"{where}: lower register dimension {elements['lower_register_dim']}, "
                        f"want r = {inst.r}")
    rpos = prof["labels"].index(LOWER)
    if layout == "static" and prof["ranks"][rpos - 1] != inst.r:
        problems.append(f"{where}: innermost static rank {prof['ranks'][rpos - 1]}, want {inst.r}")
    if layout == "dynamic":
        left_peak = max(prof["ranks"][:rpos])
        right = len(prof["labels"]) - 1 - rpos
        if (left_peak, right) != (inst.beta, inst.alpha):
            problems.append(f"{where}: left block peak {left_peak} and {right} qubits right "
                            f"of R, want beta = {inst.beta} and alpha = {inst.alpha}")
    return problems
