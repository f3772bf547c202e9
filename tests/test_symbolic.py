"""Symbolic elements: normal forms, exact algebra, windowed commutation.

The windowed projection is the oracle for the symbolic composition: on
every sampled pair, projecting then composing must equal composing then
projecting, as long as the window swallows all patch data.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import (
    BlockPerm,
    IdFin,
    SetDescriptor,
    StratumTag,
    block_perm,
    classify,
    compose_chain,
    dom_set,
    empty_map,
    fin_map,
    format_sym,
    parse_sym,
    partial_identity,
    sym_apply,
    sym_compose,
    sym_defined_at,
    sym_element,
    sym_graph,
    sym_inverse,
    im_set,
)
from invsemi.catalog import common_point_family
from invsemi.errors import ParseError

from conftest import (
    SYM_POOL_POINT_BOUND,
    overlapping_sym_element,
    project_to_window,
    random_sym_element,
)

EVENS = SetDescriptor.residue_class(0, 2)
ODDS = SetDescriptor.residue_class(1, 2)


def sampled_elements(seed):
    return random_sym_element(random.Random(seed))


def overlapping_elements(seed):
    return overlapping_sym_element(random.Random(seed))


# the catalog pool meets in single points; the second sampler permutes
# carriers that overlap infinitely
SAMPLERS = (sampled_elements, overlapping_elements)


sym_seeds = st.integers(0, 2**32 - 1)


# -- normal forms ----------------------------------------------------


def test_normal_form_validation():
    with pytest.raises(ValueError):
        BlockPerm(SetDescriptor.from_points([1, 2]), ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        BlockPerm(EVENS, ())
    with pytest.raises(ValueError):
        BlockPerm(EVENS, ((0, 0),))
    with pytest.raises(ValueError):
        BlockPerm(EVENS, ((0, 2),))  # 2 never maps back
    with pytest.raises(ValueError):
        BlockPerm(EVENS, ((1, 3), (3, 1)))  # support off the block
    with pytest.raises(ValueError):
        IdFin(EVENS, ((4, 4),))
    with pytest.raises(ValueError):
        IdFin(EVENS, ((2, 5),))  # source sits in the base
    with pytest.raises(ValueError):
        IdFin(EVENS, ((1, 3), (3, 1)))  # permuting patch: BlockPerm's job


def test_canonical_constructor_funnels():
    assert sym_element(EVENS, [(1, 3), (3, 1)]) == BlockPerm(
        EVENS.with_points([1, 3]), ((1, 3), (3, 1))
    )
    # identity pairs fold into the base
    assert sym_element(EMPTY_SET, [(4, 4), (7, 7)]) == partial_identity([4, 7])
    assert sym_element(EVENS, []) == IdFin(EVENS, ())
    # a finite carrier keeps the patch form even when the patch permutes
    f = sym_element(SetDescriptor.from_points([9]), [(1, 3), (3, 1)])
    assert isinstance(f, IdFin)


EMPTY_SET = SetDescriptor.empty()


def test_block_perm_accepts_fixed_points():
    f = block_perm(EVENS, [(0, 2), (2, 0), (4, 4)])
    assert f == BlockPerm(EVENS, ((0, 2), (2, 0)))
    with pytest.raises(ValueError):
        block_perm(EVENS, [(0, 2)])


def test_constructor_refusals_name_their_fault():
    with pytest.raises(ParseError, match="block reference 'B0' needs a family"):
        parse_sym("id(B0)")
    with pytest.raises(ValueError, match="map points must be naturals"):
        fin_map([(-1, 2)])
    with pytest.raises(ValueError, match="pairs must be sorted by source"):
        IdFin(EMPTY_SET, ((2, 3), (1, 4)))
    with pytest.raises(ValueError, match="block must be infinite"):
        block_perm(SetDescriptor.from_points([1, 2]), [(1, 2), (2, 1)])


def test_apply_and_membership():
    f = sym_element(EVENS, [(1, 3)])
    assert sym_apply(f, 0) == 0 and sym_apply(f, 1) == 3
    assert sym_defined_at(f, 100) and not sym_defined_at(f, 3)
    assert dom_set(f) == EVENS.with_points([1])
    assert im_set(f) == EVENS.with_points([3])
    g = empty_map()
    assert not sym_defined_at(g, 0)
    assert dom_set(g).is_empty()


# -- the dual-route commutation oracle --------------------------------


@settings(max_examples=200)
@given(sym_seeds, sym_seeds)
def test_projection_commutes_with_composition(s1, s2):
    for sample in SAMPLERS:
        f, g = sample(s1), sample(s2)
        for window in (16, 32):
            lhs = project_to_window(sym_compose(f, g), window)
            rhs = project_to_window(f, window).compose(project_to_window(g, window))
            assert lhs == rhs


@given(sym_seeds)
def test_projection_commutes_with_inversion(s):
    f = sampled_elements(s)
    assert project_to_window(sym_inverse(f), 16) == project_to_window(f, 16).inverse()


@given(sym_seeds)
def test_inverse_is_an_involution(s):
    f = sampled_elements(s)
    assert sym_inverse(sym_inverse(f)) == f


@given(sym_seeds, sym_seeds)
def test_inversion_reverses_products(s1, s2):
    for sample in SAMPLERS:
        f, g = sample(s1), sample(s2)
        assert sym_inverse(sym_compose(f, g)) == sym_compose(sym_inverse(g), sym_inverse(f))


@given(sym_seeds, sym_seeds, sym_seeds)
def test_symbolic_composition_is_associative(s1, s2, s3):
    for sample in SAMPLERS:
        f, g, h = sample(s1), sample(s2), sample(s3)
        assert sym_compose(sym_compose(f, g), h) == sym_compose(f, sym_compose(g, h))


@given(sym_seeds)
def test_graph_lists_the_pairs_of_finite_elements(s):
    for sample in SAMPLERS:
        f = sample(s)
        if dom_set(f).is_infinite():
            with pytest.raises(ValueError):
                sym_graph(f)
        else:
            assert sym_graph(f) == tuple((x, sym_apply(f, x)) for x in dom_set(f).points())


@given(sym_seeds)
def test_pool_data_fits_the_windows(s):
    f = sampled_elements(s)
    for s_, t_ in f.pairs:
        assert s_ < SYM_POOL_POINT_BOUND and t_ < SYM_POOL_POINT_BOUND


def test_composition_normalizes():
    # inverse times element collapses to the identity on the domain
    f = sym_element(EVENS, [(1, 3)])
    assert sym_compose(sym_inverse(f), f) == partial_identity(EVENS.with_points([1]))
    swap = block_perm(EVENS, [(0, 2), (2, 0)])
    assert sym_compose(swap, swap) == partial_identity(EVENS)
    # fin composed with fin stays fin
    a = fin_map([(0, 1), (2, 3)])
    b = fin_map([(5, 0), (6, 2)])
    assert sym_compose(a, b) == fin_map([(5, 1), (6, 3)])


def test_compose_chain_folds_left_to_right():
    a = fin_map([(0, 1)])
    b = fin_map([(1, 0)])
    assert compose_chain([a, b]) == partial_identity([1])
    assert compose_chain([a]) == a
    assert compose_chain([a, b, a]) == a


# -- classification ----------------------------------------------------


def test_classification():
    fam = common_point_family(3)
    blocks = fam.blocks
    assert classify(partial_identity(blocks[0]), blocks) == StratumTag("group", 0, 0)
    assert classify(block_perm(blocks[1], [(2, 6), (6, 2)]), blocks) == StratumTag(
        "group", 1, 1
    )
    tag = classify(fin_map([(1, 2)]), blocks)
    assert tag == StratumTag("finite", 0, 1, 1)
    assert classify(empty_map(), blocks) == StratumTag("empty", k=0)
    assert classify(partial_identity(EVENS), blocks) == StratumTag("outside")
    assert classify(fin_map([(1, 2), (3, 6)]), blocks).kind == "finite"


def test_classification_prefers_low_indices():
    fam = common_point_family(3)
    # 0 sits in every block; the least containing pair is reported
    tag = classify(fin_map([(0, 0)]), fam.blocks)
    assert (tag.i, tag.j, tag.k) == (0, 0, 1)


# -- literals ----------------------------------------------------------


@given(sym_seeds)
def test_sym_literal_round_trip(s):
    f = sampled_elements(s)
    assert parse_sym(format_sym(f)) == f


def test_sym_literal_forms():
    fam = common_point_family(3)
    blocks = fam.blocks
    assert parse_sym("empty") == empty_map()
    assert parse_sym("fin(1->0, 2->4)") == fin_map([(1, 0), (2, 4)])
    assert parse_sym("id(B2)", blocks) == partial_identity(blocks[2])
    f = parse_sym("perm(B0; 1->5, 5->1)", blocks)
    assert f == block_perm(blocks[0], [(1, 5), (5, 1)])
    g = parse_sym("idplus(tail mod 2 residues [0]; 1->3)")
    assert g == sym_element(EVENS, [(1, 3)])
    assert format_sym(f, blocks) == "perm(B0; 1->5, 5->1)"
    assert format_sym(partial_identity(blocks[1]), blocks) == "id(B1)"
