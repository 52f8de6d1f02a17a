"""Deterministic SMILES workload generator.

Molecules are assembled from fragment templates, so the generator knows each
molecule's graph without asking the parser: its heavy-atom count and whether
it holds an aromatic nitrogen (the binary label).  Coverage: chains and
branches, fused aromatic and heteroaromatic rings, bracket atoms with charge,
hydrogen count, isotope and chirality, and ``%nn`` ring closures.  Salts
(``.``) are left out because the parser rejects them.

Malformed strings are made by edits that break the grammar whatever the
string was (an unclosed branch, a ring bond that never closes, a dangling
bond, a doubly bonded fluorine), and every one is marked, so a check can
require that exactly the marked strings fail to parse.  An unknown element
inserted anywhere in the string is not among the edits yet: ``parse_smiles``
reads ``[C@H]`` as the extended chirality class ``@H`` (no hydrogen, one
radical electron) and so also accepts ``[C@XH]``, and every run would fail on
that defect.  It returns, together with a hydrogen-count comparison in the
graph check, once the parser is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (template, has aromatic N).  ``{r}``/``{s}`` are ring-bond labels; the
# fragment's first atom takes the incoming bond and its last written atom the
# outgoing one, and both have a free valence for it.
RINGS = (
    ("c{r}ccccc{r}", False),
    ("c{r}ccncc{r}", True),
    ("c{r}cc[nH]c{r}", True),
    ("c{r}ccoc{r}", False),
    ("c{r}ccsc{r}", False),
    ("c{r}scnc{r}", True),
    ("c{r}ocnc{r}", True),
    ("c{r}[nH]cnc{r}", True),
    ("c{r}cncnc{r}", True),
    ("c{r}nccnc{r}", True),
    ("c{r}ccc{s}ccccc{s}c{r}", False),
    ("c{r}ccc{s}[nH]ccc{s}c{r}", True),
    ("c{r}ccc{s}ncccc{s}c{r}", True),
    ("c{r}ccc{s}occc{s}c{r}", False),
    ("c{r}ccc{s}[nH]cnc{s}c{r}", True),
    ("C{r}CCCCC{r}", False),
    ("C{r}CCNCC{r}", False),
    ("C{r}COCCN{r}", False),
    ("C{r}CC{r}", False),
    ("C{r}CCC{s}CCCCC{s}C{r}", False),
)
# Chain units with one incoming and one outgoing bond.  The int is how many
# branches the unit's last atom can still take.
LINKS = (
    ("C", 2),
    ("C", 2),
    ("CC", 2),
    ("N", 1),
    ("O", 0),
    ("S", 0),
    ("C(=O)", 0),
    ("C(=O)N", 1),
    ("C=C", 1),
    ("C#C", 0),
    ("[C@@H]", 1),
    ("[C@H]", 1),
    ("[NH2+]", 0),
    ("S(=O)(=O)", 0),
)
# Chain ends: one incoming bond, nothing after.
TERMINALS = (
    "C",
    "C",
    "O",
    "N",
    "F",
    "Cl",
    "Br",
    "I",
    "C#N",
    "C(=O)O",
    "C(=O)[O-]",
    "[N+](=O)[O-]",
    "[NH3+]",
    "[13CH3]",
    "C(F)(F)F",
)
# Molecule starts: no incoming bond, one outgoing.
STARTS = ("C", "C", "N", "O", "CC", "[NH3+]", "FC", "ClC", "C(C)(C)")

# Edits that make any SMILES malformed.
MUTATIONS = ("open_branch", "dangling_ring", "dangling_bond", "double_bonded_F")


def heavy_atoms(smiles: str) -> int:
    """Atoms written in a generated string (bracket atoms count once)."""
    count = 0
    i = 0
    while i < len(smiles):
        ch = smiles[i]
        if ch == "[":
            count += 1
            i = smiles.index("]", i) + 1
            continue
        if ch.isalpha():
            count += 1
            if smiles[i : i + 2] in ("Cl", "Br"):
                i += 1
        i += 1
    return count


@dataclass(frozen=True)
class Molecule:
    smiles: str
    atoms: int  # heavy atoms the string encodes (0 when malformed)
    label: int  # 1 if an aromatic nitrogen is present
    malformed: bool
    mutation: str | None = None


class Generator:
    """Seeded source of unique SMILES strings with a target size range."""

    def __init__(self, rng: np.random.Generator, min_atoms: int, max_atoms: int, malformed_rate: float = 0.0):
        self.rng = rng
        self.min_atoms = min_atoms
        self.max_atoms = max_atoms
        self.malformed_rate = malformed_rate
        self.seen: set[str] = set()

    def _ring(self, labels: list[str]) -> tuple[str, int, bool]:
        template, arom_n = RINGS[self.rng.integers(len(RINGS))]
        text = template
        for slot in ("{r}", "{s}"):
            if slot in text:
                text = text.replace(slot, labels.pop())
        return text, heavy_atoms(text), arom_n

    def _labels(self) -> list[str]:
        """Two distinct ring-bond labels, a fifth of them in ``%nn`` form."""
        out = []
        while len(out) < 2:
            if self.rng.random() < 0.2:
                lab = f"%{self.rng.integers(10, 99)}"
            else:
                lab = str(self.rng.integers(1, 10))
            if lab not in out:
                out.append(lab)
        return out

    def _chain(self, budget: int, depth: int) -> tuple[str, int, bool]:
        """Units until about ``budget`` atoms are written, then a terminal."""
        parts: list[str] = []
        atoms = 0
        arom_n = False
        while atoms < budget:
            if self.rng.random() < 0.35:
                text, n, has_n = self._ring(self._labels())
                parts.append(text)
                atoms += n
                arom_n |= has_n
                continue
            text, free = LINKS[self.rng.integers(len(LINKS))]
            parts.append(text)
            atoms += heavy_atoms(text)
            for _ in range(free):
                if depth < 2 and atoms < budget and self.rng.random() < 0.3:
                    sub = int(self.rng.integers(1, max(2, (budget - atoms) // 2 + 1)))
                    btext, bn, bhas = self._chain(sub, depth + 1)
                    parts.append(f"({btext})")
                    atoms += bn
                    arom_n |= bhas
        term = TERMINALS[self.rng.integers(len(TERMINALS))]
        parts.append(term)
        return "".join(parts), atoms + heavy_atoms(term), arom_n

    def _valid(self) -> Molecule:
        while True:
            target = int(self.rng.integers(self.min_atoms, self.max_atoms + 1))
            start = STARTS[self.rng.integers(len(STARTS))]
            body, n, arom_n = self._chain(max(1, target - heavy_atoms(start) - 1), 0)
            smiles = start + body
            n += heavy_atoms(start)
            if smiles not in self.seen and self.min_atoms <= n <= self.max_atoms:
                self.seen.add(smiles)
                return Molecule(smiles, n, int(arom_n), False)

    def _mutate(self, smiles: str) -> tuple[str, str]:
        kind = MUTATIONS[self.rng.integers(len(MUTATIONS))]
        if kind == "open_branch":
            return smiles + "(", kind
        if kind == "dangling_ring":
            return smiles + "%99", kind  # valid strings never use label 99
        if kind == "dangling_bond":
            return smiles + "=", kind
        return smiles + "=F", kind

    def next(self) -> Molecule:
        mol = self._valid()
        if self.malformed_rate and self.rng.random() < self.malformed_rate:
            bad, kind = self._mutate(mol.smiles)
            return Molecule(bad, 0, 0, True, kind)
        return mol

    def take(self, count: int) -> list[Molecule]:
        return [self.next() for _ in range(count)]
