"""SMILES parsing and nine-feature atom featurization.

The parser covers the organic subset (B C N O P S F Cl Br I), lowercase
aromatic forms (b c n o p s, plus se/as/te inside brackets), bracket atoms
with isotope, chirality (@ / @@, and the extended classes @TH1-2, @AL1-2,
@SP1-3, @TB1-20 and @OH1-30, all read as OTHER), explicit hydrogen counts
and charges, branches, bond symbols (- = # : / \\, with slash stereo
parsed and discarded), and ring closures including %nn.  Errors carry the
character offset; problems only detectable at end of input (unclosed branch,
bracket or ring) report the end-of-string offset.

Featurization follows the usual cheminformatics conventions:

* implicit hydrogens = default valence minus the bond-order sum, where an
  aromatic bond contributes 1.5 and the per-atom total is floored; aromatic
  atoms use their lowest default valence and clamp at zero (so furan O and
  thiophene S carry no hydrogens), while non-aromatic atoms pick the
  smallest admissible valence and raise :class:`ValenceError` if none fits;
* ring membership means "lies on some cycle".  ``parse_smiles`` finds the
  ring edges (the non-bridges) with one bridge search per molecule; an atom
  is in a ring when a ring edge touches it, and a default (unwritten) bond
  is aromatic when both its atoms are aromatic and it is a ring edge,
  otherwise single (the biphenyl case);
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


# ---- raw parse structures -------------------------------------------------------


@dataclass
class RawAtom:
    symbol: str  # capitalized element symbol
    aromatic: bool
    bracket: bool
    charge: int = 0
    explicit_hs: int | None = None  # None only for organic-subset atoms
    chirality: Chirality = Chirality.UNSPECIFIED
    offset: int = 0


@dataclass
class ParsedMolecule:
    """Parser output before feature computation."""

    atoms: list[RawAtom]
    bonds: list[tuple[int, int, BondOrder]]
    in_ring: list[bool]


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _parse_bracket(s: str, start: int) -> tuple[RawAtom, int]:
    """Parse a bracket atom starting at the '[' in position ``start``.

    Returns the atom and the index just past the closing ']'.  Field order
    is isotope, symbol, chirality, hydrogen count, charge, atom class.
    """
    end = s.find("]", start + 1)
    if end < 0:
        raise SmilesError("unterminated bracket atom", len(s))
    i = start + 1
    # isotope (discarded)
    while i < end and _is_digit(s[i]):
        i += 1
    sym_start = i
    aromatic = False
    symbol = ""
    if i < end and s[i].isupper():
        if i + 1 < end and s[i + 1].islower() and s[i : i + 2] in SYMBOL_TO_NUMBER:
            symbol = s[i : i + 2]
            i += 2
        elif s[i] in SYMBOL_TO_NUMBER:
            symbol = s[i]
            i += 1
    elif i < end and s[i].islower():
        if s[i : i + 2] in AROMATIC_BRACKET:
            symbol = s[i : i + 2].capitalize()
            aromatic = True
            i += 2
        elif s[i] in AROMATIC_ORGANIC:
            symbol = s[i].upper()
            aromatic = True
            i += 1
    if not symbol:
        raise SmilesError("unknown atom symbol in bracket", sym_start)
    atom = RawAtom(symbol=symbol, aromatic=aromatic, bracket=True, explicit_hs=0, offset=start)
    # chirality
    if i < end and s[i] == "@":
        i += 1
        tag = s[i : i + 2]
        if i < end and s[i] == "@":
            atom.chirality = Chirality.CW
            i += 1
        elif tag in _CHIRAL_CLASSES and i + 2 < end and _is_digit(s[i + 2]):
            i += 2
            num_start = i
            while i < end and _is_digit(s[i]):
                i += 1
            if not 1 <= int(s[num_start:i]) <= _CHIRAL_CLASSES[tag]:
                raise SmilesError(f"undefined chirality class @{tag}{s[num_start:i]}", num_start)
            atom.chirality = Chirality.OTHER
        else:
            # a following H is the hydrogen count, not a class
            atom.chirality = Chirality.CCW
    # hydrogen count
    if i < end and s[i] == "H":
        i += 1
        count = 1
        if i < end and _is_digit(s[i]):
            num_start = i
            while i < end and _is_digit(s[i]):
                i += 1
            count = int(s[num_start:i])
        atom.explicit_hs = count
    # charge
    if i < end and s[i] in "+-":
        sign = 1 if s[i] == "+" else -1
        ch = s[i]
        i += 1
        if i < end and _is_digit(s[i]):
            num_start = i
            while i < end and _is_digit(s[i]):
                i += 1
            atom.charge = sign * int(s[num_start:i])
        else:
            magnitude = 1
            while i < end and s[i] == ch:
                magnitude += 1
                i += 1
            atom.charge = sign * magnitude
    # atom class (discarded)
    if i < end and s[i] == ":":
        i += 1
        if i >= end or not _is_digit(s[i]):
            raise SmilesError("atom class marker without digits", i)
        while i < end and _is_digit(s[i]):
            i += 1
    if i != end:
        raise SmilesError(f"unexpected character {s[i]!r} in bracket atom", i)
    if atom.explicit_hs is not None and atom.explicit_hs > 8:
        raise ValenceError(f"hydrogen count {atom.explicit_hs} out of range", start)
    return atom, end + 1


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

    def add_bond(i: int, j: int, order: BondOrder | None, offset: int) -> None:
        if i == j:
            raise SmilesError("ring closure bonds an atom to itself", offset)
        key = (min(i, j), max(i, j))
        if key in bonds:
            raise SmilesError("duplicate bond between atoms", offset)
        bonds[key] = order

    def attach(new_index: int, offset: int) -> None:
        nonlocal pending, prev
        if prev is not None:
            if pending is not None:
                add_bond(prev, new_index, pending[0], pending[1])
                pending = None
            else:
                add_bond(prev, new_index, None, offset)
        prev = new_index

    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            if prev is None:
                raise SmilesError("bond symbol before any atom", i)
            pending = (_BOND_SYMBOLS[ch], i)
            i += 1
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch opens before any atom", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise SmilesError("unmatched closing parenthesis", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol", pending[1])
            prev = stack.pop()
            i += 1
        elif _is_digit(ch) or ch == "%":
            if ch == "%":
                if i + 2 >= n or not (_is_digit(s[i + 1]) and _is_digit(s[i + 2])):
                    raise SmilesError("malformed %nn ring closure", i)
                number = int(s[i + 1 : i + 3])
                width = 3
            else:
                number = int(ch)
                width = 1
            if prev is None:
                raise SmilesError("ring closure before any atom", i)
            if number in open_rings:
                other, other_order = open_rings.pop(number)
                here_order = pending[0] if pending is not None else None
                if other_order is not None and here_order is not None and other_order != here_order:
                    raise SmilesError("conflicting bond orders on ring closure", i)
                add_bond(prev, other, here_order if here_order is not None else other_order, i)
                pending = None
            else:
                open_rings[number] = (prev, pending[0] if pending else None)
                pending = None
            i += width
        elif ch == "[":
            atom, nxt = _parse_bracket(s, i)
            atoms.append(atom)
            attach(len(atoms) - 1, i)
            i = nxt
        elif ch.isalpha():
            if ch.isupper():
                two = s[i : i + 2]
                if two in ("Cl", "Br"):
                    symbol, width = two, 2
                elif ch in ORGANIC_SUBSET:
                    symbol, width = ch, 1
                else:
                    raise SmilesError(f"unknown atom symbol {ch!r}", i)
                atoms.append(RawAtom(symbol=symbol, aromatic=False, bracket=False, offset=i))
            else:
                if ch not in AROMATIC_ORGANIC:
                    raise SmilesError(f"unknown atom symbol {ch!r}", i)
                atoms.append(RawAtom(symbol=ch.upper(), aromatic=True, bracket=False, offset=i))
                width = 1
            attach(len(atoms) - 1, i)
            i += width
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise SmilesError("dangling bond symbol", pending[1])
    if stack:
        raise SmilesError("unclosed branch parenthesis", n)
    if open_rings:
        raise SmilesError("unmatched ring-closure digit", n)
    if not atoms:
        raise SmilesError("no atoms in SMILES string", 0)

    ring_edges = _non_bridge_edges(len(atoms), list(bonds))
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


# ---- ring perception ------------------------------------------------------------


def _non_bridge_edges(num_atoms: int, edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges lying on at least one cycle, via iterative bridge finding."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_atoms)]
    for eid, (a, b) in enumerate(edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    disc = [-1] * num_atoms
    low = [0] * num_atoms
    bridges: set[int] = set()
    counter = 0
    for root in range(num_atoms):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # node, entry edge id, child cursor
        while stack:
            node, via, cursor = stack.pop()
            if cursor == 0:
                disc[node] = low[node] = counter
                counter += 1
            if cursor < len(adj[node]):
                stack.append((node, via, cursor + 1))
                child, eid = adj[node][cursor]
                if eid == via:
                    continue
                if disc[child] == -1:
                    stack.append((child, eid, 0))
                else:
                    low[node] = min(low[node], disc[child])
            else:
                if via != -1:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        bridges.add(via)
    return {edge for eid, edge in enumerate(edges) if eid not in bridges}


# ---- valence model ---------------------------------------------------------------


def implicit_hydrogens(symbol: str, aromatic: bool, half_order_sum: int, offset: int = 0) -> int:
    """Implicit hydrogen count for an organic-subset atom.

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


def _radical_electrons(atom: RawAtom, half_order_sum: int) -> int:
    """Valence an uncharged bracket atom leaves unfilled, by the hydrogen rule.

    Raises :class:`ValenceError` when a non-aromatic atom's bonds and
    hydrogens exceed its largest default valence.
    """
    if not atom.bracket or atom.charge != 0 or atom.symbol not in DEFAULT_VALENCES:
        return 0
    filled = half_order_sum + 2 * (atom.explicit_hs or 0)
    return implicit_hydrogens(atom.symbol, atom.aromatic, filled, atom.offset)


def infer_hybridization(
    symbol: str,
    aromatic: bool,
    charge: int,
    degree: int,
    num_hs: int,
    radicals: int,
    half_order_sum: int,
) -> Hybridization:
    """Orbital hybridization: SP2 if aromatic, else from the steric number."""
    if aromatic:
        return Hybridization.SP2
    outer = OUTER_ELECTRONS.get(symbol)
    if outer is None:
        return Hybridization.OTHER
    lone_pairs = max(0, (outer - charge - half_order_sum // 2 - num_hs - radicals) // 2)
    steric = degree + num_hs + lone_pairs
    return _STERIC_HYBRIDIZATION.get(steric, Hybridization.OTHER)


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
    for idx, atom in enumerate(mol.atoms):
        half_sum = half_sums[idx]
        if atom.bracket:
            num_hs = atom.explicit_hs or 0
        else:
            num_hs = implicit_hydrogens(atom.symbol, atom.aromatic, half_sum, atom.offset)
        radicals = _radical_electrons(atom, half_sum)
        hybrid = infer_hybridization(
            atom.symbol,
            atom.aromatic,
            atom.charge,
            degree[idx],
            num_hs,
            radicals,
            half_sum,
        )
        features.append(
            AtomFeatures(
                atomic_number=SYMBOL_TO_NUMBER[atom.symbol],
                chirality=atom.chirality,
                degree=degree[idx],
                formal_charge=atom.charge,
                num_hs=num_hs,
                radical_electrons=radicals,
                hybridization=hybrid,
                is_aromatic=atom.aromatic,
                in_ring=mol.in_ring[idx],
            )
        )
    return MolecularGraph(atoms=features, bonds=mol.bonds, source_smiles=s)
