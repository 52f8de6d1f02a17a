"""SMILES parser and featurizer semantics.

Ring flags are checked against an exhaustive edge-removal oracle, on chosen
molecules and on generated strings, and the committed 50-molecule fixture
pins every feature of every atom.
"""

import json
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfuse.errors import SmilesError, ValenceError
from molfuse.smiles import (
    AtomFeatures,
    BondOrder,
    Chirality,
    Hybridization,
    featurize,
    implicit_hydrogens,
    parse_smiles,
)

FIXTURES = Path(__file__).parent / "fixtures"


def edge_on_cycle_oracle(num_atoms: int, edges: list[tuple[int, int]], which: int) -> bool:
    """An edge lies on a cycle iff its endpoints stay connected without it."""
    a, b = edges[which]
    adj = {i: set() for i in range(num_atoms)}
    for k, (x, y) in enumerate(edges):
        if k == which:
            continue
        adj[x].add(y)
        adj[y].add(x)
    seen, frontier = {a}, [a]
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return b in seen


def ring_flags_oracle(num_atoms: int, edges: list[tuple[int, int]]) -> list[bool]:
    flags = [False] * num_atoms
    for k, (a, b) in enumerate(edges):
        if edge_on_cycle_oracle(num_atoms, edges, k):
            flags[a] = True
            flags[b] = True
    return flags


def by_name(atom: AtomFeatures) -> dict:
    """An atom's fields keyed by name, enums by name, as the fixture writes them."""
    return {k: v.name if isinstance(v, IntEnum) else v for k, v in atom._asdict().items()}


class TestParser:
    def test_single_atom(self):
        mol = parse_smiles("C")
        assert len(mol.atoms) == 1 and mol.atoms[0].symbol == "C"
        assert mol.bonds == []

    def test_triangle_ring(self):
        mol = parse_smiles("C1CC1")
        assert len(mol.atoms) == 3
        pairs = sorted((a, b) for a, b, _ in mol.bonds)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert all(order is BondOrder.SINGLE for _, _, order in mol.bonds)

    def test_acetic_acid_bonds(self):
        mol = parse_smiles("CC(=O)O")
        assert len(mol.atoms) == 4
        orders = {(a, b): o for a, b, o in mol.bonds}
        assert orders[(0, 1)] is BondOrder.SINGLE
        assert orders[(1, 2)] is BondOrder.DOUBLE
        assert orders[(1, 3)] is BondOrder.SINGLE

    def test_unclosed_branch_offset(self):
        with pytest.raises(SmilesError) as err:
            parse_smiles("C(")
        assert err.value.offset == 2

    def test_two_letter_elements(self):
        mol = parse_smiles("CCl")
        assert [a.symbol for a in mol.atoms] == ["C", "Cl"]

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%12CCCCC%12")
        pairs = sorted((a, b) for a, b, _ in mol.bonds)
        assert (0, 5) in pairs and len(pairs) == 6

    def test_ring_closure_bond_order_from_either_side(self):
        for s in ("C=1CCCCC1", "C1CCCCC=1"):
            orders = {(a, b): o for a, b, o in parse_smiles(s).bonds}
            assert orders[(0, 5)] is BondOrder.DOUBLE

    def test_conflicting_ring_orders_rejected(self):
        with pytest.raises(SmilesError):
            parse_smiles("C=1CCCCC#1")

    def test_biphenyl_link_is_single(self):
        # A default bond between aromatic atoms is aromatic only in a ring.
        mol = parse_smiles("c1ccccc1c1ccccc1")
        orders = {(a, b): o for a, b, o in mol.bonds}
        assert orders[(5, 6)] is BondOrder.SINGLE
        ring_orders = [o for (a, b), o in orders.items() if (a, b) != (5, 6)]
        assert all(o is BondOrder.AROMATIC for o in ring_orders)

    def test_bracket_atom_fields(self):
        mol = parse_smiles("[13C@@H2+2]")
        atom = mol.atoms[0]
        assert atom.symbol == "C"
        assert atom.chirality is Chirality.CW
        assert atom.explicit_hs == 2
        assert atom.charge == 2

    def test_charge_forms(self):
        assert parse_smiles("[O-]").atoms[0].charge == -1
        assert parse_smiles("[O--]").atoms[0].charge == -2
        assert parse_smiles("[N+3]").atoms[0].charge == 3
        assert parse_smiles("[C-15]").atoms[0].charge == -15
        assert parse_smiles("[C" + "+" * 15 + "]").atoms[0].charge == 15

    def test_chirality_extension_maps_to_other(self):
        assert parse_smiles("[C@TH1](N)(O)C").atoms[0].chirality is Chirality.OTHER

    def test_hydrogen_after_at_is_not_a_chirality_class(self):
        alpha = featurize("N[C@H](C)C(=O)O").atoms[1]
        assert alpha.chirality is Chirality.CCW
        assert (alpha.num_hs, alpha.radical_electrons) == (1, 0)
        assert alpha.hybridization is Hybridization.SP3
        assert parse_smiles("[C@TH2](N)(O)C").atoms[0].chirality is Chirality.OTHER

    def test_slash_stereo_parsed_as_single(self):
        mol = parse_smiles("F/C=C/F")
        orders = {(a, b): o for a, b, o in mol.bonds}
        assert orders[(0, 1)] is BondOrder.SINGLE
        assert orders[(1, 2)] is BondOrder.DOUBLE


# Class and message of each row of invalid_smiles.tsv, read off the parser's
# raise statements; the offsets stay in the fixture.
NEGATIVE_CORPUS_ERRORS = {
    "C[C": (SmilesError, "unterminated bracket atom"),
    "C[Q]": (SmilesError, "unknown atom symbol in bracket"),
    "[C@TH3]": (SmilesError, "undefined chirality class @TH3"),
    "[C:]": (SmilesError, "atom class marker without digits"),
    "[C@XH]": (SmilesError, "unexpected character 'X' in bracket atom"),
    "[C@@@H]": (SmilesError, "unexpected character '@' in bracket atom"),
    "C[CH9]": (ValenceError, "hydrogen count 9 out of range"),
    "C11": (SmilesError, "ring closure bonds an atom to itself"),
    "C12CC12": (SmilesError, "duplicate bond between atoms"),
    "C==C": (SmilesError, "dangling bond symbol"),
    "=C": (SmilesError, "bond symbol before any atom"),
    "(C)C": (SmilesError, "branch opens before any atom"),
    "CC)": (SmilesError, "unmatched closing parenthesis"),
    "C%1C": (SmilesError, "malformed %nn ring closure"),
    "1CC": (SmilesError, "ring closure before any atom"),
    "C=1CCCCC#1": (SmilesError, "conflicting bond orders on ring closure"),
    "C$C": (SmilesError, "unexpected character '$'"),
    "CX": (SmilesError, "unknown atom symbol 'X'"),
    "CCq": (SmilesError, "unknown atom symbol 'q'"),
    "CC(C": (SmilesError, "unclosed branch parenthesis"),
    "C1CC": (SmilesError, "unmatched ring-closure digit"),
    "FC(F)(F)(F)F": (ValenceError, "C needs valence 5, above its maximum 4"),
    "C[CH4]": (ValenceError, "C needs valence 5, above its maximum 4"),
}


class TestParserErrors:
    def test_negative_corpus_has_positioned_errors(self):
        rows = (FIXTURES / "invalid_smiles.tsv").read_text().strip().splitlines()
        assert len(rows) >= 12
        assert sorted(row.split("\t")[0] for row in rows) == sorted(NEGATIVE_CORPUS_ERRORS)
        for row in rows:
            smiles, offset = row.split("\t")
            with pytest.raises(SmilesError) as err:
                featurize(smiles)
            assert err.value.offset == int(offset), f"offset mismatch for {smiles!r}"
            cls, message = NEGATIVE_CORPUS_ERRORS[smiles]
            assert type(err.value) is cls, smiles
            assert str(err.value) == f"{message} (offset {offset})"

    # Digit runs past the OpenSMILES field widths (one hydrogen-count digit, two
    # chirality-class or charge digits) and charges beyond +-15.  The long runs
    # exceed the 4300-digit limit of int() on strings.
    @pytest.mark.parametrize(
        "smiles, message, offset",
        [
            ("[CH" + "1" * 4301 + "]", "unexpected character '1' in bracket atom", 4),
            ("[C@TH" + "1" * 4301 + "]", "undefined chirality class @TH11", 5),
            ("[C+" + "1" * 4299 + "]", "unexpected character '1' in bracket atom", 5),
            ("[C-" + "1" * 4299 + "]", "unexpected character '1' in bracket atom", 5),
            ("[C+16]", "charge +16 out of range", 2),
            ("[C+99]", "charge +99 out of range", 2),
            ("[CH2-16]", "charge -16 out of range", 4),
            ("[C" + "+" * 16 + "]", "charge +16 out of range", 2),
            ("[C" + "-" * 4301 + "]", "charge -4301 out of range", 2),
        ],
        ids=["h-run", "chiral-run", "plus-run", "minus-run", "plus16", "plus99", "minus16", "16-signs", "4301-signs"],
    )
    def test_bracket_digit_runs_and_charge_limit(self, smiles, message, offset):
        with pytest.raises(SmilesError) as err:
            featurize(smiles)
        assert type(err.value) is SmilesError
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (offset {offset})"

    def test_empty_string(self):
        with pytest.raises(SmilesError) as err:
            featurize("")
        assert err.value.offset == 0
        assert type(err.value) is SmilesError
        assert str(err.value) == "empty SMILES string (offset 0)"

    def test_valence_error_is_smiles_error(self):
        with pytest.raises(ValenceError):
            featurize("CC(C)(C)(C)C")


class TestRingPerception:
    def test_acyclic(self):
        assert parse_smiles("CCO").in_ring == [False, False, False]

    def test_benzene(self):
        assert parse_smiles("c1ccccc1").in_ring == [True] * 6

    def test_ring_with_tail(self):
        assert parse_smiles("C1CC1CC").in_ring == [True, True, True, False, False]

    @pytest.mark.parametrize(
        "smiles",
        [
            "C1CC1CC",
            "C1CCC2CCCCC2C1",
            "c1ccc2ccccc2c1",
            "C1CC2(CC1)CCC2",
            "CC(C)C1CCC1",
            "C1CC1C1CC1",
            # Closures opened inside a branch: their atoms are neither
            # ancestor nor descendant of each other in the parse tree.
            "C(C1)C1",
            "C1(CC2)CC12",
            "C(C(C1)C2)C12",
            "CC(CC1)CC1C",
            "c(c1)c1",
            "c1(cc2)cc12",
            "c1cc1c1cc1",
        ],
    )
    def test_matches_exhaustive_cycle_oracle(self, smiles):
        mol = parse_smiles(smiles)
        assert len(mol.atoms) <= 12
        edges = [(a, b) for a, b, _ in mol.bonds]
        assert mol.in_ring == ring_flags_oracle(len(mol.atoms), edges)
        # No bond is written, so a bond between aromatic atoms is aromatic
        # exactly when it lies on a cycle, and every other bond is single.
        for k, (a, b, order) in enumerate(mol.bonds):
            aromatic = mol.atoms[a].aromatic and mol.atoms[b].aromatic
            on_cycle = edge_on_cycle_oracle(len(mol.atoms), edges, k)
            assert order is (BondOrder.AROMATIC if aromatic and on_cycle else BondOrder.SINGLE), (smiles, a, b)


class TestValenceModel:
    def test_methane(self):
        assert featurize("C").atoms[0].num_hs == 4

    def test_ethanol_oxygen(self):
        assert featurize("CCO").atoms[2].num_hs == 1

    def test_benzene_carbon(self):
        assert featurize("c1ccccc1").atoms[0].num_hs == 1

    def test_pyridine_nitrogen_has_no_h(self):
        graph = featurize("c1ccncc1")
        assert graph.atoms[3].num_hs == 0

    def test_thiophene_sulfur_has_no_h(self):
        # Aromatic atoms use their lowest valence: floor(3.0) > 2 clamps to 0.
        graph = featurize("c1ccsc1")
        sulfur = next(a for a in graph.atoms if a.atomic_number == 16)
        assert sulfur.num_hs == 0

    def test_pentavalent_nitrogen_admitted(self):
        graph = featurize("CN(=O)=O")  # nitro written pentavalent
        assert graph.atoms[1].num_hs == 0

    def test_bracket_hydrogens_are_explicit(self):
        assert featurize("[CH]").atoms[0].num_hs == 1
        assert featurize("[C]").atoms[0].num_hs == 0

    def test_implicit_hydrogens_helper(self):
        assert implicit_hydrogens("N", False, 2) == 2  # one single bond
        assert implicit_hydrogens("S", False, 8) == 0  # two doubles picks valence 4
        with pytest.raises(ValenceError):
            implicit_hydrogens("C", False, 10)


class TestHybridization:
    def test_methane_sp3(self):
        assert featurize("C").atoms[0].hybridization is Hybridization.SP3

    def test_benzene_sp2(self):
        assert featurize("c1ccccc1").atoms[0].hybridization is Hybridization.SP2

    def test_alkyne_sp(self):
        graph = featurize("C#C")
        assert all(a.hybridization is Hybridization.SP for a in graph.atoms)

    def test_carbonyl_sp2(self):
        graph = featurize("CC(C)=O")
        assert graph.atoms[1].hybridization is Hybridization.SP2
        assert graph.atoms[3].hybridization is Hybridization.SP2

    def test_ether_oxygen_sp3(self):
        assert featurize("COC").atoms[1].hybridization is Hybridization.SP3

    def test_allene_center_sp(self):
        assert featurize("C=C=C").atoms[1].hybridization is Hybridization.SP

    def test_hypervalent_centres_sp3(self):
        # Sulfone S and phosphate P are tetrahedral despite their double bonds.
        assert featurize("CS(=O)(=O)C").atoms[1].hybridization is Hybridization.SP3
        assert featurize("OP(=O)(O)O").atoms[1].hybridization is Hybridization.SP3


class TestFeaturize:
    def test_methane_full_vector(self):
        atom = featurize("C").atoms[0]
        assert by_name(atom) == {
            "atomic_number": 6,
            "chirality": "UNSPECIFIED",
            "degree": 0,
            "formal_charge": 0,
            "num_hs": 4,
            "radical_electrons": 0,
            "hybridization": "SP3",
            "is_aromatic": False,
            "in_ring": False,
        }

    def test_ammonium_full_vector(self):
        atom = featurize("[NH4+]").atoms[0]
        assert by_name(atom) == {
            "atomic_number": 7,
            "chirality": "UNSPECIFIED",
            "degree": 0,
            "formal_charge": 1,
            "num_hs": 4,
            "radical_electrons": 0,
            "hybridization": "SP3",
            "is_aromatic": False,
            "in_ring": False,
        }

    def test_methyl_radical(self):
        assert featurize("[CH3]").atoms[0].radical_electrons == 1

    def test_aromatic_radicals_use_lowest_valence(self):
        assert featurize("c1cc[nH]c1").atoms[3].radical_electrons == 0
        assert featurize("c1cc[se]c1").atoms[3].radical_electrons == 0
        assert featurize("[c]1ccccc1").atoms[0].radical_electrons == 1

    # Worked from the module docstring: radicals = lowest default valence not
    # below bonds + written H, minus that sum (uncharged atoms with default
    # valences only); lone pairs = (outer - charge - bonds - H - radicals) // 2;
    # steric number = degree + H + lone pairs.
    @pytest.mark.parametrize(
        "smiles, hybridization, radicals",
        [
            ("[Fe]", "OTHER", 0),  # no outer-electron count, no default valence
            ("[Cu+2]", "OTHER", 0),  # charged, and no outer-electron count
            ("[Na+]", "S", 0),  # lone pairs (1 - 1) // 2 = 0, steric 0
            ("[Se]", "SP", 2),  # valence 2 unfilled; lone pairs (6 - 2) // 2 = 2
            ("[SiH3]", "SP2", 1),  # valence 4 - 3; steric 3 + 0
            ("[B]", "S", 3),  # valence 3 unfilled; lone pairs 0, steric 0
            ("[PH5]", "SP3D", 0),  # valence 5 filled; steric 5
            ("[SH6]", "SP3D2", 0),  # valence 6 filled; steric 6
            ("[XeH7]", "OTHER", 0),  # lone pairs (8 - 7) // 2 = 0, steric 7
        ],
    )
    def test_valence_branches_outside_fixture(self, smiles, hybridization, radicals):
        atom = featurize(smiles).atoms[0]
        assert atom.hybridization is Hybridization[hybridization]
        assert atom.radical_electrons == radicals

    def test_determinism(self):
        a = featurize("CC(=O)Oc1ccccc1C(=O)O")
        b = featurize("CC(=O)Oc1ccccc1C(=O)O")
        assert a.feature_matrix().tobytes() == b.feature_matrix().tobytes()
        assert a.bonds == b.bonds

    def test_feature_matrix_shape(self):
        graph = featurize("CCO")
        assert graph.feature_matrix().shape == (3, 9)

    def test_feature_matrix_columns_follow_field_order(self):
        # [nH+] in pyridinium: enums by ordinal, flags as 0/1.
        row = featurize("c1cc[nH+]cc1").feature_matrix()[3]
        assert row.tolist() == [7, 0, 2, 1, 1, 0, 2, 1, 1]
        assert AtomFeatures._fields == (
            "atomic_number", "chirality", "degree", "formal_charge", "num_hs",
            "radical_electrons", "hybridization", "is_aromatic", "in_ring",
        )


def load_feature_fixture() -> list[tuple[str, list[dict]]]:
    rows = (FIXTURES / "atom_features_50.tsv").read_text().strip().splitlines()
    return [(line.split("\t")[0], json.loads(line.split("\t")[1])) for line in rows]


class TestFeatureFixture:
    def test_corpus_size(self):
        assert len(load_feature_fixture()) == 50

    def test_every_atom_matches_reference(self):
        for smiles, expected_atoms in load_feature_fixture():
            graph = featurize(smiles)
            assert graph.num_atoms == len(expected_atoms), smiles
            for k, (atom, expected) in enumerate(zip(graph.atoms, expected_atoms)):
                assert by_name(atom) == expected, f"{smiles} atom {k}"

    def test_degree_consistency_over_corpus(self):
        for smiles, _ in load_feature_fixture():
            graph = featurize(smiles)
            counts = [0] * graph.num_atoms
            for a, b, _ in graph.bonds:
                counts[a] += 1
                counts[b] += 1
            assert counts == [atom.degree for atom in graph.atoms], smiles

    def test_ring_flags_match_oracle_over_corpus(self):
        for smiles, _ in load_feature_fixture():
            graph = featurize(smiles)
            if graph.num_atoms > 12:
                continue
            edges = graph.bond_pairs()
            oracle = ring_flags_oracle(graph.num_atoms, edges)
            assert [a.in_ring for a in graph.atoms] == oracle, smiles


# Units of a chain whose ring bonds join random atom pairs at least two
# apart (fused, spiro and bridged systems among them), and single characters
# that reach every error path.
_ATOMS = ["C", "c", "N", "n", "O", "s", "[nH]", "[C@@H]", "[O-]", "C(C)", "c(O)", "C(=O)"]
_UNITS = _ATOMS + ["=C", "#N", ":c", "/C", "Cl"]
_CHARS = "CNOSPFBIclnosp[]()=#-:/\\@+H%0123456789."


@st.composite
def ring_smiles(draw) -> str:
    units = [draw(st.sampled_from(_ATOMS))] + draw(st.lists(st.sampled_from(_UNITS), max_size=11))
    last = len(units) - 1
    closures = draw(st.lists(st.tuples(st.integers(0, last), st.integers(2, 11), st.booleans()), max_size=4))
    for number, (i, gap, in_branch) in enumerate(closures, start=1):
        if i + gap <= last:
            # In a branch, the ring opens on a new atom off unit i (as in C(C1)C1).
            units[i] += f"(C{number})" if in_branch else str(number)
            units[i + gap] += str(number)
    return "".join(units)


# Bracket atoms drawn field by field, so generated strings reach every branch
# of the bracket grammar, its errors among them; _CHARS seldom builds one.
_BRACKET_ATOMS = st.tuples(
    st.sampled_from(["", "2", "13"]),
    st.sampled_from(["C", "N", "O", "S", "Cl", "Se", "Zn", "H", "c", "n", "s", "se", "as", "te", "X", "q"]),
    st.sampled_from(["", "@", "@@", "@@@", "@TH0", "@TH1", "@TH2", "@TH3", "@OH31"]),
    st.sampled_from(["", "H", "H12"]),
    st.sampled_from(["", "+", "++", "-3", "+-"]),
    st.sampled_from(["", ":", ":7"]),
).map(lambda fields: "[" + "".join(fields) + "]")
_BRACKET_SMILES = st.lists(st.one_of(_BRACKET_ATOMS, st.sampled_from(_UNITS)), min_size=1, max_size=4).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ring_smiles(), st.text(alphabet=_CHARS, max_size=14), _BRACKET_SMILES))
def test_generated_strings_parse_or_raise_and_ring_flags_match_oracle(smiles):
    try:
        graph = featurize(smiles)
    except SmilesError:
        return
    assert graph.feature_matrix().shape == (graph.num_atoms, len(AtomFeatures._fields))
    oracle = ring_flags_oracle(graph.num_atoms, graph.bond_pairs())
    assert [a.in_ring for a in graph.atoms] == oracle, smiles
    incident = [0] * graph.num_atoms
    for a, b in graph.bond_pairs():
        incident[a] += 1
        incident[b] += 1
    assert [a.degree for a in graph.atoms] == incident, smiles
    for atom in graph.atoms:
        assert not atom.is_aromatic or atom.hybridization is Hybridization.SP2, smiles
        assert atom.num_hs >= 0 and atom.radical_electrons >= 0, smiles
        assert atom.formal_charge == 0 or atom.radical_electrons == 0, smiles
