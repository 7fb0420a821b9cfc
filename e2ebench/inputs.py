"""Seeded input generation for every workload (numpy only, no ``repro``).

The benchmark makes its own inputs so that a change to the program's
generators cannot silently change what is measured.  Every function here
is a pure function of its seed: the same seed gives byte-identical FASTA
files and ground truth.

The background sequences, which carry most of the work (random seed
hits, random extensions), come from the fixed ``BACKGROUND_SEED``; the
workload seed draws the planted families, where they go, and (for the
serve workloads) the order and timing of requests.  So a new seed is a
new search problem with the same amount of work, and the run-to-run
spread measures the program and the machine rather than the inputs.
"""

from __future__ import annotations

import numpy as np

AA = "ARNDCQEGHILKMFPSTWYV"
#: Robinson & Robinson background frequencies, in ``AA`` order.
AA_FREQ = np.array(
    [
        0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295,
        0.07377, 0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856,
        0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
    ]
)
AA_FREQ = AA_FREQ / AA_FREQ.sum()

#: The standard genetic code, codons enumerated in TCAG order.
_BASES = "TCAG"
_CODE = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
CODON_TABLE = {
    a + b + c: _CODE[16 * i + 4 * j + k]
    for i, a in enumerate(_BASES)
    for j, b in enumerate(_BASES)
    for k, c in enumerate(_BASES)
}
_CODONS_OF = {aa: [c for c, x in sorted(CODON_TABLE.items()) if x == aa] for aa in AA}
_COMPLEMENT = str.maketrans("ACGT", "TGCA")
BACKGROUND_SEED = 2009

#: Workload sizes: full size, and the toy size used by the self-test.
SIZES = {
    "genome-compare": {
        "full": dict(proteins=300, mean=335, genome_nt=200_000, families=5, members=2, length=300),
        "toy": dict(proteins=30, mean=200, genome_nt=20_000, families=2, members=2, length=200),
    },
    "bank-scan": {
        "full": dict(n0=600, n1=1500, mean=335, families=4, length=300),
        "toy": dict(n0=60, n1=150, mean=200, families=3, length=200),
    },
    "serve": {
        "full": dict(resident=4000, mean=200, families=8, members=2, pool=100, query=200),
        "toy": dict(resident=300, mean=200, families=2, members=2, pool=10, query=200),
    },
}


def random_protein(rng: np.random.Generator, length: int) -> str:
    idx = rng.choice(len(AA), size=length, p=AA_FREQ)
    return "".join(AA[i] for i in idx)


def random_proteins(
    rng: np.random.Generator, n: int, mean: float, prefix: str
) -> list[tuple[str, str]]:
    """*n* background proteins with log-normal lengths of the given mean."""
    sigma = 0.55
    lengths = np.round(rng.lognormal(np.log(mean) - sigma * sigma / 2, sigma, n))
    return [
        (f"{prefix}{i:05d}", random_protein(rng, max(30, int(n_aa))))
        for i, n_aa in enumerate(lengths)
    ]


def mutate(rng: np.random.Generator, seq: str, identity: float) -> str:
    """Substitute each residue with probability ``1 - identity``."""
    out = list(seq)
    for i in np.flatnonzero(rng.random(len(seq)) > identity):
        out[i] = AA[int(rng.choice(len(AA), p=AA_FREQ))]
    return "".join(out)


def family(
    rng: np.random.Generator, members: int, length: int, identities=None
) -> tuple[str, list[str]]:
    """An ancestor of *length* residues and mutated members at the given
    identities (by default drawn from 60-90%)."""
    ancestor = random_protein(rng, length)
    if identities is None:
        identities = [float(rng.uniform(0.6, 0.9)) for _ in range(members)]
    return ancestor, [mutate(rng, ancestor, identity) for identity in identities]


def spaced_identities(n: int) -> list[float]:
    """*n* identities spread evenly over 60-90%."""
    return [0.6 + 0.3 * (k + 0.5) / n for k in range(n)]


def reverse_complement(nt: str) -> str:
    return nt.translate(_COMPLEMENT)[::-1]


def translate_frame(genome: str, frame: int) -> str:
    """Frame ``+1..+3`` reads the forward strand from offset ``frame-1``;
    ``-1..-3`` reads the reverse complement the same way."""
    strand = genome if frame > 0 else reverse_complement(genome)
    start = abs(frame) - 1
    return "".join(
        CODON_TABLE[strand[i : i + 3]] for i in range(start, len(strand) - 2, 3)
    )


def genome_compare(seed: int, toy: bool) -> dict:
    """Protein bank + genome with planted family members (tblastn shape).

    Each family's ancestor is a query (named ``familyNNN``); its members
    are reverse-translated and written over random genome loci on a
    random strand.  ``truth`` records where every member went.
    """
    size = SIZES["genome-compare"]["toy" if toy else "full"]
    rng = np.random.default_rng([seed, 1])
    background = np.random.default_rng([BACKGROUND_SEED, 1])
    proteins = random_proteins(background, size["proteins"], size["mean"], "prot")
    gc = 0.41
    p_nt = [(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2]
    genome = ["ACGT"[i] for i in background.choice(4, size=size["genome_nt"], p=p_nt)]
    truth = []
    occupied: list[tuple[int, int]] = []
    for f in range(size["families"]):
        ancestor, members = family(rng, size["members"], size["length"])
        proteins.append((f"family{f:03d}", ancestor))
        for m, member in enumerate(members):
            nt = "".join(_CODONS_OF[aa][rng.integers(len(_CODONS_OF[aa]))] for aa in member)
            while True:
                start = int(rng.integers(0, len(genome) - len(nt)))
                end = start + len(nt)
                if all(end <= a or b <= start for a, b in occupied):
                    break
            occupied.append((start, end))
            strand = 1 if rng.random() < 0.5 else -1
            genome[start:end] = nt if strand == 1 else reverse_complement(nt)
            truth.append(
                {"family": f"family{f:03d}", "member": m, "start": start, "end": end, "strand": strand}
            )
    return {"proteins": proteins, "genome": "".join(genome), "truth": truth}


def bank_scan(seed: int, toy: bool) -> dict:
    """Two protein banks; each family has one member in bank 0 and two in bank 1."""
    size = SIZES["bank-scan"]["toy" if toy else "full"]
    rng = np.random.default_rng([seed, 2])
    background = np.random.default_rng([BACKGROUND_SEED, 2])
    fams = [family(rng, 3, size["length"]) for _ in range(size["families"])]
    bank0 = random_proteins(background, size["n0"] - len(fams), size["mean"], "q")
    bank1 = random_proteins(background, size["n1"] - 2 * len(fams), size["mean"], "s")
    for f, (_, members) in enumerate(fams):
        bank0.append((f"fam{f:03d}_0", members[0]))
        bank1.extend((f"fam{f:03d}_{m}", members[m]) for m in (1, 2))
    return {"bank0": bank0, "bank1": bank1}


def serve(seed: int, toy: bool) -> dict:
    """A resident bank with planted families and a pool of one-protein queries.

    Every fifth query of the pool is a fresh mutant of a family ancestor
    (so it hits the family's resident members); the rest are background
    proteins.  Each round of requests sends the whole pool once, so one
    in five requests carries a homolog.  Queries all have the same length.
    Identities are spread evenly rather than drawn, so that the amount of
    step-3 work a round asks for varies little from seed to seed.
    """
    size = SIZES["serve"]["toy" if toy else "full"]
    rng = np.random.default_rng([seed, 3])
    background = np.random.default_rng([BACKGROUND_SEED, 3])
    member_identities = spaced_identities(size["members"])
    homolog_identities = spaced_identities(size["pool"] // 5)
    fams = [
        family(rng, size["members"], size["query"], member_identities)
        for _ in range(size["families"])
    ]
    resident = random_proteins(background, size["resident"], size["mean"], "res")
    for f, (_, members) in enumerate(fams):
        for m, member in enumerate(members):
            slot = int(rng.integers(len(resident)))
            resident[slot] = (f"fam{f:03d}_{m}", member)
    pool = []
    for i in range(size["pool"]):
        if i % 5 == 0:
            ancestor = fams[(i // 5) % len(fams)][0]
            pool.append((f"hom{i:03d}", mutate(rng, ancestor, homolog_identities[i // 5])))
        else:
            pool.append((f"bg{i:03d}", random_protein(background, size["query"])))
    return {"resident": resident, "pool": pool}


def write_fasta(path, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), 70):
                fh.write(seq[i : i + 70] + "\n")


def read_fasta(path) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                records.append((line[1:].split()[0], []))
            elif line:
                records[-1][1].append(line)
    return [(name, "".join(parts)) for name, parts in records]
