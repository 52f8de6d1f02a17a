"""SMILES parsing and nine-feature atom featurization.

The parser covers the organic subset (B C N O P S F Cl Br I), lowercase
aromatic forms (b c n o p s, plus se/as/te inside brackets), bracket atoms
with isotope, chirality (@ / @@, and the extended classes @TH1-2, @AL1-2,
@SP1-3, @TB1-20 and @OH1-30, all read as OTHER), explicit hydrogen counts
(one digit) and charges (-15 to +15), branches, bond symbols (- = # : / \\,
with slash stereo parsed and discarded), and ring closures including %nn.
Errors carry the character offset; problems only detectable at end of input
(unclosed branch, bracket or ring) report the end-of-string offset.

The grammar lives in two compiled patterns, built from the element tables.
``_TOKEN`` splits a string into tokens: an organic atom, a whole bracket atom,
a bond, a branch parenthesis, a ring label (a digit or %nn) or one stray
character, which raises.  ``_BRACKET`` reads the fields of a bracket atom.

Featurization follows the usual cheminformatics conventions.  ``featurize``
applies the hydrogen, radical and hybridization rules in one loop over atoms:

* implicit hydrogens = default valence minus the bond-order sum, where an
  aromatic bond contributes 1.5 and the per-atom total is floored; aromatic
  atoms use their lowest default valence and clamp at zero (so furan O and
  thiophene S carry no hydrogens), while non-aromatic atoms pick the
  smallest admissible valence and raise :class:`ValenceError` if none fits;
* ring membership means "lies on some cycle".  The chain and branch bonds
  form a tree, so ``parse_smiles`` marks as ring edges each ring-closure bond
  and the tree path between its two atoms; an atom is in a ring when a ring
  edge touches it, and a default (unwritten) bond is aromatic when both its
  atoms are aromatic and it is a ring edge, otherwise single (the biphenyl
  case);
* radical electrons are the valence an uncharged bracket atom leaves
  unfilled, by the same rule as implicit hydrogens: bonds plus written
  hydrogens, aromatic atoms against their lowest default valence clamped at
  zero (so pyrrole ``[nH]`` has none and ``[c]1ccccc1`` has one); charged
  atoms and elements without default valences get none;
* hybridization: aromatic implies SP2, otherwise the steric number (degree
  + hydrogens + lone pairs) decides, so a sulfone S or phosphate P is SP3.

Explicit hydrogens written as their own atoms (e.g. ``[H]``) become graph
nodes and count toward degree, not toward the hydrogen-count feature.
Isotope labels and atom-class tags are parsed and discarded.

The field order of :class:`AtomFeatures` is the column order of
:meth:`MolecularGraph.feature_matrix`: enums by ordinal, flags as 0/1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import SmilesError, ValenceError

# ---- element tables -----------------------------------------------------------

_ELEMENTS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr "
    "Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og"
).split()

SYMBOL_TO_NUMBER = {sym: z for z, sym in enumerate(_ELEMENTS, start=1)}

ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
AROMATIC_ORGANIC = {"b", "c", "n", "o", "p", "s"}
AROMATIC_BRACKET = AROMATIC_ORGANIC | {"se", "as", "te"}

# Admissible valences, smallest first.
DEFAULT_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "H": (1,),
    "Se": (2, 4, 6),
    "As": (3, 5),
    "Te": (2, 4, 6),
    "Si": (4,),
}

_GROUP_OUTER = {
    1: ("H", "Li", "Na", "K", "Rb", "Cs", "Fr"),
    2: ("Be", "Mg", "Ca", "Sr", "Ba", "Ra"),
    3: ("B", "Al", "Ga", "In", "Tl"),
    4: ("C", "Si", "Ge", "Sn", "Pb"),
    5: ("N", "P", "As", "Sb", "Bi"),
    6: ("O", "S", "Se", "Te", "Po"),
    7: ("F", "Cl", "Br", "I", "At"),
    8: ("He", "Ne", "Ar", "Kr", "Xe", "Rn"),
}
OUTER_ELECTRONS = {sym: n for n, syms in _GROUP_OUTER.items() for sym in syms}


class Chirality(IntEnum):
    UNSPECIFIED = 0
    CW = 1
    CCW = 2
    OTHER = 3


class Hybridization(IntEnum):
    S = 0
    SP = 1
    SP2 = 2
    SP3 = 3
    SP3D = 4
    SP3D2 = 5
    OTHER = 6


# Hybridization by steric number (neighbours + hydrogens + lone pairs).
_STERIC_HYBRIDIZATION = {
    0: Hybridization.S,
    1: Hybridization.S,
    2: Hybridization.SP,
    3: Hybridization.SP2,
    4: Hybridization.SP3,
    5: Hybridization.SP3D,
    6: Hybridization.SP3D2,
}


class BondOrder(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3


# Bond-order contribution to valence sums, in half units to stay exact.
_HALF_ORDER = {
    BondOrder.SINGLE: 2,
    BondOrder.DOUBLE: 4,
    BondOrder.TRIPLE: 6,
    BondOrder.AROMATIC: 3,
}

_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,  # cis/trans marker discarded
    "\\": BondOrder.SINGLE,
}

# OpenSMILES extended chirality classes and the highest number each admits.
_CHIRAL_CLASSES = {"TH": 2, "AL": 2, "SP": 3, "TB": 20, "OH": 30}


class AtomFeatures(NamedTuple):
    """The nine per-atom features consumed by the graph branch, in column order."""

    atomic_number: int
    chirality: Chirality
    degree: int
    formal_charge: int
    num_hs: int
    radical_electrons: int
    hybridization: Hybridization
    is_aromatic: bool
    in_ring: bool


@dataclass
class MolecularGraph:
    """Featurized atoms plus an undirected bond list (i < j, no duplicates)."""

    atoms: list[AtomFeatures]
    bonds: list[tuple[int, int, BondOrder]]
    source_smiles: str

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def bond_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _ in self.bonds]

    def feature_matrix(self) -> np.ndarray:
        return np.array(self.atoms, dtype=np.float64)


# ---- grammar --------------------------------------------------------------------


def _alternation(symbols) -> str:
    """Regex alternatives over ``symbols``, longest first so ``Cl`` wins over ``C``."""
    return "|".join(sorted(symbols, key=lambda sym: (-len(sym), sym)))


# One token per match.  Groups: 1 organic atom, 2 bracket atom (without its ']'
# when unterminated), 3 bond, 4 '(', 5 ')', 6 ring label, 7 any other character.
# [0-9], not \d, which also matches digits outside ASCII; re.S lets a newline
# reach group 7.
_TOKEN = re.compile(
    f"({_alternation(ORGANIC_SUBSET | AROMATIC_ORGANIC)})"
    r"|(\[[^\]]*\]?)"
    f"|([{re.escape(''.join(_BOND_SYMBOLS))}])"
    r"|(\()|(\))|([0-9]|%[0-9][0-9])|(.)",
    re.S,
)

# The inside of a bracket atom, fields in OpenSMILES order.  Groups: 1 isotope,
# 2 symbol, 3 chirality, 4-5 its extended class and number, 6 hydrogen-count
# digit, 7 signed charge, 8 repeated sign, 9 atom class.  Every part after the
# isotope is optional, so a match ends at the first character the grammar
# disallows.  The grammar bounds the digits ``int()`` reads: one for the
# hydrogen count, two for a chirality class number or a charge.
_BRACKET = re.compile(
    r"([0-9]*)"
    f"({_alternation(SYMBOL_TO_NUMBER.keys() | AROMATIC_BRACKET)})?"
    f"(@(?:@|({'|'.join(_CHIRAL_CLASSES)})([0-9][0-9]?))?)?"
    r"(?:H([0-9]?))?"
    r"(?:([+-][0-9][0-9]?)|(\++|-+))?"
    r"(:[0-9]*)?"
)

_CHIRALITY = {None: Chirality.UNSPECIFIED, "@": Chirality.CCW, "@@": Chirality.CW}


# ---- raw parse structures -------------------------------------------------------


@dataclass
class RawAtom:
    symbol: str  # capitalized element symbol
    aromatic: bool
    charge: int = 0
    explicit_hs: int | None = None  # None only for organic-subset atoms (implicit hydrogens)
    chirality: Chirality = Chirality.UNSPECIFIED
    offset: int = 0


@dataclass
class ParsedMolecule:
    """Parser output before feature computation."""

    atoms: list[RawAtom]
    bonds: list[tuple[int, int, BondOrder]]
    in_ring: list[bool]


def _parse_bracket(s: str, start: int, end: int) -> RawAtom:
    """Parse the bracket atom between the '[' at ``start`` and the ']' at ``end``."""
    m = _BRACKET.match(s, start + 1, end)
    isotope, symbol, chiral, tag, number, hs, signed, signs, atom_class = m.groups()
    if symbol is None:
        raise SmilesError("unknown atom symbol in bracket", start + 1 + len(isotope))
    if tag is not None and not 1 <= int(number) <= _CHIRAL_CLASSES[tag]:
        raise SmilesError(f"undefined chirality class @{tag}{number}", m.start(5))
    if atom_class == ":":
        raise SmilesError("atom class marker without digits", m.end(9))
    if m.end() != end:
        raise SmilesError(f"unexpected character {s[m.end()]!r} in bracket atom", m.end())
    explicit_hs = 0 if hs is None else int(hs or 1)
    if explicit_hs > 8:
        raise ValenceError(f"hydrogen count {explicit_hs} out of range", start)
    charge = int(signed or 0) if signs is None else signs.count("+") - signs.count("-")
    if abs(charge) > 15:
        raise SmilesError(f"charge {charge:+d} out of range", m.start(7 if signs is None else 8))
    chirality = _CHIRALITY.get(chiral, Chirality.OTHER)
    return RawAtom(symbol.capitalize(), symbol.islower(), charge, explicit_hs, chirality, start)


def parse_smiles(s: str) -> ParsedMolecule:
    """Parse a SMILES string into raw atoms and an undirected bond list."""
    if not s:
        raise SmilesError("empty SMILES string", 0)
    atoms: list[RawAtom] = []
    bonds: dict[tuple[int, int], BondOrder | None] = {}  # None: unwritten
    prev: int | None = None
    pending: tuple[BondOrder, int] | None = None  # (order, offset of symbol)
    stack: list[int | None] = []
    open_rings: dict[int, tuple[int, BondOrder | None]] = {}  # number -> (atom, written order)
    parent: list[int | None] = []  # the atom each atom bonds back to; a tree with parent < child
    closures: list[tuple[int, int]] = []

    for m in _TOKEN.finditer(s):
        kind, token, i = m.lastindex, m[0], m.start()
        if kind <= 2:
            if kind == 1:
                atom = RawAtom(token.capitalize(), token.islower(), offset=i)
            elif token[-1] != "]":
                raise SmilesError("unterminated bracket atom", len(s))
            else:
                atom = _parse_bracket(s, i, m.end() - 1)
            if prev is not None:  # prev < the new index, and nothing bonds to it yet
                bonds[prev, len(atoms)] = pending[0] if pending is not None else None
                pending = None
            parent.append(prev)
            prev = len(atoms)
            atoms.append(atom)
        elif kind == 3:
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            if prev is None:
                raise SmilesError("bond symbol before any atom", i)
            pending = (_BOND_SYMBOLS[token], i)
        elif kind == 4:
            if prev is None:
                raise SmilesError("branch opens before any atom", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            stack.append(prev)
        elif kind == 5:
            if not stack:
                raise SmilesError("unmatched closing parenthesis", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            prev = stack.pop()
        elif kind == 6:
            if prev is None:
                raise SmilesError("ring closure before any atom", i)
            number = int(token[-2:])
            order = pending[0] if pending is not None else None
            pending = None
            if number not in open_rings:
                open_rings[number] = (prev, order)
                continue
            other, other_order = open_rings.pop(number)
            if order is None:
                order = other_order
            elif other_order is not None and other_order != order:
                raise SmilesError("conflicting bond orders on ring closure", i)
            if other == prev:
                raise SmilesError("ring closure bonds an atom to itself", i)
            key = (min(prev, other), max(prev, other))
            if key in bonds:
                raise SmilesError("duplicate bond between atoms", i)
            bonds[key] = order
            closures.append(key)
        elif token == "%":
            raise SmilesError("malformed %nn ring closure", i)
        elif token.isalpha():
            raise SmilesError(f"unknown atom symbol {token!r}", i)
        else:
            raise SmilesError(f"unexpected character {token!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond symbol", pending[1])
    if stack:
        raise SmilesError("unclosed branch parenthesis", len(s))
    if open_rings:
        raise SmilesError("unmatched ring-closure digit", len(s))
    if not atoms:
        raise SmilesError("no atoms in SMILES string", 0)

    # A bond is on a ring iff it closes one or lies on the tree path between a
    # closure's atoms.  The larger index is never the other's ancestor, so
    # stepping it up the tree meets the common ancestor.
    ring_edges = set(closures)
    for a, b in closures:
        while a != b:
            if a < b:
                a, b = b, a
            ring_edges.add((parent[a], a))
            a = parent[a]
    in_ring = [False] * len(atoms)
    for a, b in ring_edges:
        in_ring[a] = in_ring[b] = True
    bond_list: list[tuple[int, int, BondOrder]] = []
    for (a, b), order in bonds.items():
        if order is None:
            aromatic = atoms[a].aromatic and atoms[b].aromatic and (a, b) in ring_edges
            order = BondOrder.AROMATIC if aromatic else BondOrder.SINGLE
        bond_list.append((a, b, order))
    return ParsedMolecule(atoms=atoms, bonds=bond_list, in_ring=in_ring)


# ---- valence model ---------------------------------------------------------------


def implicit_hydrogens(symbol: str, aromatic: bool, half_order_sum: int, offset: int = 0) -> int:
    """Unfilled valence: an organic-subset atom's implicit hydrogens, a bracket atom's radicals.

    ``half_order_sum`` is twice the bond-order sum (aromatic bonds count 3),
    floored at the atom level before comparing against default valences.
    """
    vsum = half_order_sum // 2
    candidates = DEFAULT_VALENCES[symbol]
    if aromatic:
        return max(0, candidates[0] - vsum)
    for valence in candidates:
        if valence >= vsum:
            return valence - vsum
    raise ValenceError(f"{symbol} needs valence {vsum}, above its maximum {candidates[-1]}", offset)


# ---- featurization ----------------------------------------------------------------


def featurize(s: str) -> MolecularGraph:
    """Parse a SMILES string and compute all nine features per atom."""
    mol = parse_smiles(s)
    n = len(mol.atoms)
    half_sums = [0] * n
    degree = [0] * n
    for a, b, order in mol.bonds:
        half_sums[a] += _HALF_ORDER[order]
        half_sums[b] += _HALF_ORDER[order]
        degree[a] += 1
        degree[b] += 1

    features: list[AtomFeatures] = []
    for atom, half_sum, deg, in_ring in zip(mol.atoms, half_sums, degree, mol.in_ring):
        symbol, aromatic, charge = atom.symbol, atom.aromatic, atom.charge
        radicals = 0
        if atom.explicit_hs is None:
            num_hs = implicit_hydrogens(symbol, aromatic, half_sum, atom.offset)
        else:
            num_hs = atom.explicit_hs
            if charge == 0 and symbol in DEFAULT_VALENCES:
                radicals = implicit_hydrogens(symbol, aromatic, half_sum + 2 * num_hs, atom.offset)
        outer = OUTER_ELECTRONS.get(symbol)
        if aromatic:
            hybrid = Hybridization.SP2
        elif outer is None:
            hybrid = Hybridization.OTHER
        else:
            lone_pairs = max(0, (outer - charge - half_sum // 2 - num_hs - radicals) // 2)
            hybrid = _STERIC_HYBRIDIZATION.get(deg + num_hs + lone_pairs, Hybridization.OTHER)
        features.append(
            AtomFeatures(
                atomic_number=SYMBOL_TO_NUMBER[symbol],
                chirality=atom.chirality,
                degree=deg,
                formal_charge=charge,
                num_hs=num_hs,
                radical_electrons=radicals,
                hybridization=hybrid,
                is_aromatic=aromatic,
                in_ring=in_ring,
            )
        )
    return MolecularGraph(atoms=features, bonds=mol.bonds, source_smiles=s)
