import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvweights import (
    ModularContext,
    PartitionMult,
    SearchBox,
    distinguished_depth,
    enumerate_distinguished,
    generate_family_set,
    iterate,
    lv,
    lv_p,
    refinement_chain,
    reverse_negate,
    rho_family,
    trace_from_json,
    trace_to_json,
)
from lvweights.modular_iteration import (
    IterationTrace,
    _is_prime,
    STATUS_EXHAUSTED,
    STATUS_EXPANDED,
    STATUS_NONINTEGRAL,
    STATUS_TERMINAL_SHORT,
    STATUS_ZEROS,
)

GOLDEN_WEIGHT = (46, 46, 45, 1, -1, -45, -46, -46)


def recursive_build(seq, depth, budget, p):
    """Reference trace builder: one recursive call per level, dividing the
    public ``lv`` by hand."""
    if not any(seq):
        return IterationTrace(seq, STATUS_ZEROS, depth)
    if len(seq) == 1:
        return IterationTrace(seq, STATUS_TERMINAL_SHORT, depth)
    if budget == 0:
        return IterationTrace(seq, STATUS_EXHAUSTED, depth)
    mu = lv(seq).mu
    if any(e % p for part in mu for e in part):
        return IterationTrace(seq, STATUS_NONINTEGRAL, depth)
    children = tuple(
        recursive_build(tuple(e // p for e in part), depth + 1, budget - 1, p)
        for part in mu
    )
    return IterationTrace(seq, STATUS_EXPANDED, depth, children)


def trace_dict(t):
    """Reference JSON form: nested dicts for ``json.dumps``."""
    d = {"seq": list(t.seq), "status": t.status}
    if t.status == STATUS_EXPANDED:
        d["children"] = [trace_dict(c) for c in t.children]
    return d


def branchy_cases():
    """(weight, p, cap) with multi-branch, deep, exhausted and non-integral
    traces: family members at and below their depth, and rho_family chains
    up to depth 50."""
    cases = []
    for n in (2, 3, 4):
        for p in (5, 7):
            for w in generate_family_set(n, ModularContext(p), 6):
                cases += [(w, p, 6), (w, p, 2)]
    for n in (2, 3, 5, 6):
        for m in (0, 1, 7, 50):
            w = rho_family(n, m, ModularContext(13))
            cases += [(w, 13, m), (w, 13, max(m - 1, 0))]
    cases += [(w, 7, 4) for w in [(7, -7), (8, 1, -9), (14, 7, 0, -21)]]
    return cases

weights = st.lists(st.integers(-30, 30), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestModularContext:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            ModularContext(9)

    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 101, 10007):
            ModularContext(p)

    @pytest.mark.parametrize("p", [1, 0, -7])
    def test_rejects_below_two(self, p):
        assert not _is_prime(p)
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            ModularContext(p)

    @pytest.mark.parametrize("p,shown", [
        (5.0, "5.0"), ("5", "'5'"), (True, "True"), (7.5, "7.5"),
    ])
    def test_rejects_what_is_not_an_int(self, p, shown):
        # Refused by type before the primality test, which would accept
        # 5.0 and True's int value, and raise a TypeError on "5".
        with pytest.raises(ValueError, match=f"^p must be an int, got {shown}$"):
            ModularContext(p)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="exceed"):
            lv_p((1, 0, -1), ModularContext(3))

    def test_rejects_strong_pseudoprime_to_bases_up_to_31(self):
        # 149491 * 747451 * 34233211 is a strong probable prime to every
        # prime base from 2 to 31; only base 37 exposes it.
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert not _is_prime(3825123056546413051)
        with pytest.raises(ValueError, match="prime"):
            ModularContext(3825123056546413051)

    def test_documented_limit(self):
        # The docstring's bound: the least composite all 12 bases accept.
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert _is_prime(318665857834031151167461)


class TestLvP:
    def test_golden(self):
        assert lv_p(GOLDEN_WEIGHT, ModularContext(11)).mu == (
            (0, 0), (), (12, -12)
        )

    def test_all_zeros(self):
        for n, p in ((3, 5), (5, 7)):
            assert lv_p((0,) * n, ModularContext(p)).mu == (
                ((),) * (n - 1) + ((0,),)
            )

    def test_nonintegral(self):
        # lv((1,0)) = ((),(1)); 1 is not divisible by 5.
        assert lv_p((1, 0), ModularContext(5)) is None


class TestIterate:
    def test_golden_trace(self):
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=5)
        assert t.status == STATUS_EXPANDED
        assert [c.seq for c in t.children] == [(0, 0), (), (12, -12)]
        assert [c.status for c in t.children] == [
            STATUS_ZEROS, STATUS_ZEROS, STATUS_EXPANDED
        ]
        mid = t.children[2]
        assert [c.seq for c in mid.children] == [(1, -1)]
        last = mid.children[0]
        assert [c.seq for c in last.children] == [(0, 0)]
        assert last.children[0].status == STATUS_ZEROS
        assert last.children[0].depth == 3
        assert max(leaf.depth for leaf in t.leaves()) == 3

    def test_zero_cap_on_zeros(self):
        t = iterate((0, 0, 0), ModularContext(5), cap=0)
        assert t.status == STATUS_ZEROS
        assert t.children == ()

    def test_nonintegral_leaf(self):
        t = iterate((1, 0), ModularContext(5), cap=3)
        assert t.status == STATUS_NONINTEGRAL
        assert t.children == ()

    def test_terminal_short(self):
        t = iterate((5,), ModularContext(7), cap=3)
        assert t.status == STATUS_TERMINAL_SHORT

    def test_exhausted_at_cap(self):
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=1)
        assert t.children[2].status == STATUS_EXHAUSTED

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            iterate((0,), ModularContext(5), cap=-1)

    def test_matches_recursive_build(self):
        for w, p, cap in branchy_cases():
            assert iterate(w, ModularContext(p), cap) == recursive_build(
                w, 0, cap, p
            ), (w, p, cap)

    @given(weights, st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_random_matches_recursive_build(self, w, cap):
        assert iterate(w, ModularContext(7), cap) == recursive_build(
            w, 0, cap, 7
        )

    def test_deep_chain(self):
        ctx = ModularContext(13)
        node = iterate(rho_family(2, 600, ctx), ctx, cap=600)
        for depth in range(600):
            assert (node.status, node.depth) == (STATUS_EXPANDED, depth)
            (node,) = node.children
        assert (node.seq, node.status) == ((0, 0), STATUS_ZEROS)
        assert node.depth == 600

    def test_deep_trace_values(self):
        # ==, hash and repr of a depth-900 chain do not recurse per level.
        ctx = ModularContext(13)
        a = iterate(rho_family(2, 900, ctx), ctx, 900)
        b = iterate(rho_family(2, 900, ctx), ctx, 900)
        assert a is not b and a == b and hash(a) == hash(b)
        # Differs from a only in the status of the deepest leaf.
        c = trace_from_json(trace_to_json(a).replace(
            '"status":"zeros"', '"status":"exhausted"'
        ))
        assert a != c and c != a
        assert a != iterate(rho_family(2, 899, ctx), ctx, 900)
        text = repr(a)
        assert text.count("IterationTrace(") == 9
        assert text.endswith("depth=8, children=(...,))" + ",))" * 8)

    def test_deep_leaves_and_refinement_chain(self):
        # leaves() and refinement_chain walk their own stacks.
        ctx = ModularContext(13)
        t = iterate(rho_family(2, 3000, ctx), ctx, 3000)
        (leaf,) = t.leaves()
        assert (leaf.seq, leaf.status, leaf.depth) == ((0, 0), STATUS_ZEROS,
                                                      3000)
        assert refinement_chain(t) == ((PartitionMult((2,)),),) * 3001
        short = iterate(rho_family(2, 3000, ctx), ctx, 2999)
        with pytest.raises(ValueError, match="has status exhausted"):
            refinement_chain(short)

    def test_leaves_left_to_right(self):
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=5)

        def walk(node):
            if node.status != STATUS_EXPANDED:
                return [node]
            return [leaf for c in node.children for leaf in walk(c)]

        expected = walk(t)
        assert len(expected) > 2
        got = list(t.leaves())
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))

    def test_repr_of_a_shallow_trace(self):
        leaf = IterationTrace((0, 0), STATUS_ZEROS, 1)
        t = IterationTrace((1, -1), STATUS_EXPANDED, 0, (leaf,))
        assert repr(t) == (
            "IterationTrace(seq=(1, -1), status='expanded', depth=0, "
            "children=(IterationTrace(seq=(0, 0), status='zeros', depth=1, "
            "children=()),))"
        )
        twin = IterationTrace((1, -1), STATUS_EXPANDED, 0,
                              (IterationTrace((0, 0), STATUS_ZEROS, 1),))
        assert t == twin and len({t, twin}) == 1
        assert t != leaf and t != (1, -1)
        assert leaf != IterationTrace((0, 0), STATUS_ZEROS, 2)

    @given(weights, st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_cap_bounds_every_node(self, w, cap):
        trace = iterate(w, ModularContext(7), cap)
        stack = [trace]
        while stack:
            node = stack.pop()
            assert node.depth <= cap
            assert (node.status == STATUS_EXPANDED) == bool(node.children)
            if node.status == STATUS_EXHAUSTED:
                assert node.depth == cap
            stack.extend(node.children)


class TestDistinguishedDepth:
    def test_golden(self):
        assert distinguished_depth(GOLDEN_WEIGHT, ModularContext(11), 10) == 3

    def test_zeros(self):
        assert distinguished_depth((0,) * 4, ModularContext(5), 10) == 0

    def test_unit_pair(self):
        assert distinguished_depth((1, -1), ModularContext(5), 10) == 1

    def test_absent(self):
        assert distinguished_depth((1, 0), ModularContext(5), 10) is None

    def test_cap_cuts_off(self):
        assert distinguished_depth(GOLDEN_WEIGHT, ModularContext(11), 2) is None

    @given(weights, st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_trace_leaves(self, w, k):
        ctx = ModularContext(7)
        d = distinguished_depth(w, ctx, 6)
        all_zero = all(
            leaf.status == STATUS_ZEROS for leaf in iterate(w, ctx, k).leaves()
        )
        assert all_zero == (d is not None and d <= k)


class TestRefinementChain:
    def test_golden(self):
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=5)
        levels = refinement_chain(t)
        assert levels[0] == (PartitionMult((2, 0, 2)),)
        assert levels[0][0].parts == (3, 3, 1, 1)
        assert levels[1] == (PartitionMult((2,)), PartitionMult((2,)))
        assert len(levels) == 4

    def test_all_zero_node(self):
        t = iterate((0, 0, 0), ModularContext(5), cap=3)
        levels = refinement_chain(t)
        assert levels == ((PartitionMult((3,)),),)
        assert levels[0][0].parts == (1, 1, 1)

    def test_staircase(self):
        t = iterate((1, 0, -1), ModularContext(5), cap=3)
        levels = refinement_chain(t)
        assert levels[0] == (PartitionMult((1, 1)),)
        assert levels[0][0].parts == (2, 1)

    def test_rejects_non_distinguished(self):
        t = iterate((1, 0), ModularContext(5), cap=3)
        with pytest.raises(ValueError, match="not distinguished"):
            refinement_chain(t)

    def test_levels_refine(self):
        # Each nonzero multiplicity at level t is partitioned by exactly one
        # level-(t+1) entry, in frontier order.
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=5)
        levels = refinement_chain(t)
        for cur, nxt in zip(levels, levels[1:]):
            expected_sizes = [
                l for part in cur for l in part.mult if l > 0
            ]
            assert [q.n for q in nxt] == expected_sizes

    def test_chains_on_enumerated_sets(self):
        from lvweights import default_bound

        ctx = ModularContext(7)
        pool = enumerate_distinguished(
            SearchBox(4, 2, default_bound(4, 2, 7), 7)
        )
        assert pool
        for w in pool:
            depth = distinguished_depth(w, ctx, 2)
            levels = refinement_chain(iterate(w, ctx, cap=depth))
            assert len(levels) == depth + 1
            assert sum(q.n for q in levels[0]) == 4
            for cur, nxt in zip(levels, levels[1:]):
                sizes = [l for part in cur for l in part.mult if l > 0]
                assert [q.n for q in nxt] == sizes
            # The final level is all unit parts.
            assert all(
                part.parts == (1,) * part.n for part in levels[-1]
            )


class TestRhoFamily:
    def test_scaled(self):
        ctx = ModularContext(5)
        w = rho_family(4, 2, ctx)
        assert w == (18, 6, -6, -18)
        assert distinguished_depth(w, ctx, 10) == 2

    def test_zero_scale(self):
        assert rho_family(4, 0, ModularContext(5)) == (0, 0, 0, 0)

    def test_unit(self):
        assert rho_family(2, 1, ModularContext(5)) == (1, -1)

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_depth_matches_scale_exponent(self, n, p):
        ctx = ModularContext(p)
        for m in range(4):
            w = rho_family(n, m, ctx)
            assert distinguished_depth(w, ctx, m + 2) == m

    def test_single_component_chain(self):
        # lambda * p^k plus the scaled staircase reaches lambda after k
        # levels, through single-component outputs the whole way.
        p = 7
        ctx = ModularContext(p)
        pool = enumerate_distinguished(SearchBox(4, 2, 24, p))
        assert pool
        for lam in pool:
            for k in (1, 2, 3):
                scale = (p**k - 1) // (p - 1)
                w = tuple(
                    v * p**k + r * scale
                    for v, r in zip(lam, rho_family(4, 1, ctx))
                )
                node = iterate(w, ctx, cap=k)
                for _ in range(k):
                    assert node.status == STATUS_EXPANDED
                    assert len(node.children) == 1
                    node = node.children[0]
                assert node.seq == lam

    def test_the_scale_cache_is_bounded(self):
        # An unbounded cache once kept every scale asked for: 5,000 depths
        # left 5,000 entries (6 MB), 20,000 left about 99 MB.  No scale is
        # cached now; the values must still be exact.
        ctx = ModularContext(13)
        for m in range(5000):
            assert rho_family(2, m, ctx) == ((13**m - 1) // 12,
                                             -((13**m - 1) // 12))

    def test_monotone_membership(self):
        ctx = ModularContext(11)
        w = rho_family(5, 3, ctx)
        for cap in range(3, 8):
            assert distinguished_depth(w, ctx, cap) == 3
        assert distinguished_depth(w, ctx, 2) is None


class TestAntiSymmetry:
    @pytest.mark.parametrize("n,p,k,bound", [(2, 5, 3, 40), (3, 5, 2, 15),
                                             (4, 7, 2, 30), (5, 7, 2, 40)])
    def test_distinguished_are_fixed_by_reverse_negate(self, n, p, k, bound):
        found = enumerate_distinguished(SearchBox(n, k, bound, p))
        assert found
        for w in found:
            assert reverse_negate(w) == w
            if n % 2:
                assert w[n // 2] == 0


class TestFamilyIterateChains:
    # The closed families descend through exactly the displayed iterates.

    @pytest.mark.parametrize("p", [5, 11])
    def test_pair_family_chain(self, p):
        ctx = ModularContext(p)
        geom = lambda m: (p**m - 1) // (p - 1)
        for m in range(1, 5):
            w = (geom(m), -geom(m))
            out = lv_p(w, ctx)
            assert out.mu == ((geom(m - 1), -geom(m - 1)),)

    @pytest.mark.parametrize("p", [5, 7])
    def test_triple_family_chains(self, p):
        ctx = ModularContext(p)
        geom = lambda m: (p**m - 1) // (p - 1)
        for m in range(1, 5):
            a = 2 * geom(m)
            assert lv_p((a, 0, -a), ctx).mu == (
                (2 * geom(m - 1), 0, -2 * geom(m - 1)),
            )
            b = geom(m + 1) + geom(m)
            nxt = geom(m) + geom(m - 1)
            assert lv_p((b, 0, -b), ctx).mu == ((nxt, 0, -nxt),)
        # The short branch bottoms out in two singleton components.
        assert lv_p((1, 0, -1), ctx).mu == ((0,), (0,))

    @pytest.mark.parametrize("p", [5, 7])
    def test_two_parameter_family_switch_point(self, p):
        # After k single-component levels the four-entry family splits into
        # a pair component and a singleton zero.
        from lvweights.enumeration import closed_family

        ctx = ModularContext(p)
        geom = lambda m: (p**m - 1) // (p - 1)
        for m in range(0, 3):
            for k in range(0, 3):
                w = closed_family(4, "F3", (m, k), ctx)
                node = iterate(w, ctx, cap=m + k + 1)
                for _ in range(k):
                    assert len(node.children) == 1
                    node = node.children[0]
                expected = (p ** (m + 1) + p - 2) // (p - 1)
                assert node.seq == (expected, 0, 0, -expected)
                nxt = lv_p(node.seq, ctx)
                assert nxt.mu == ((geom(m), -geom(m)), (0,))

    @pytest.mark.parametrize("p", [5, 7])
    def test_parity_family_switch_point(self, p):
        from lvweights.enumeration import closed_family

        ctx = ModularContext(p)
        geom = lambda m: (p**m - 1) // (p - 1)
        for m in range(1, 4):
            for k in range(0, 3):
                w = closed_family(4, "F4", (m, k), ctx)
                node = iterate(w, ctx, cap=m + k)
                for _ in range(k):
                    assert len(node.children) == 1
                    node = node.children[0]
                nxt = lv_p(node.seq, ctx)
                assert nxt.mu == ((), (geom(m - 1), -geom(m - 1)))


class TestTraceJson:
    def test_round_trip(self):
        t = iterate(GOLDEN_WEIGHT, ModularContext(11), cap=5)
        assert trace_from_json(trace_to_json(t)) == t

    def test_round_trip_branchy(self):
        for w, p, cap in branchy_cases():
            t = iterate(w, ModularContext(p), cap)
            assert trace_from_json(trace_to_json(t)) == t, (w, p, cap)

    def test_round_trip_empty_children(self):
        leaf = IterationTrace((), STATUS_EXPANDED, 1)
        t = IterationTrace((2, -2), STATUS_EXPANDED, 0, (leaf,))
        assert trace_from_json(trace_to_json(t)) == t

    def test_reads_deep_trace(self):
        ctx = ModularContext(13)
        t = iterate(rho_family(2, 900, ctx), ctx, 900)
        s = trace_to_json(t)
        assert trace_from_json(s) == t
        assert trace_to_json(trace_from_json(s)) == s

    @pytest.mark.parametrize("text", [
        "",
        "{}",
        "[]",
        '{"seq":[1,0],"status":"zeros"} ',
        '{"seq":[1,0], "status":"zeros"}',
        '{"status":"zeros","seq":[1,0]}',
        '{"seq":[true],"status":"zeros"}',
        '{"seq":[1.5],"status":"zeros"}',
        '{"seq":"10","status":"zeros"}',
        '{"seq":[1,0],"status":3}',
        '{"seq":[1,0],"status":"expanded","children":[',
        '{"seq":[1,0],"status":"expanded","children":[{"seq":[],'
        '"status":"zeros"}',
        '{"seq":[1,0],"status":"expanded","children":[{"seq":[],'
        '"status":"zeros"},]}',
        '{"seq":[0],"status":"zeros"}{"seq":[0],"status":"zeros"}',
        # Read once as the trace that writes the text without these forms.
        '{"seq":[1, 0],"status":"zeros"}',
        '{"seq":[-0],"status":"zeros"}',
        '{"seq":[ ],"status":"zeros"}',
        '{"seq":[0],"status":"\\u007aeros"}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            trace_from_json(text)

    def test_reads_a_mutant_only_as_the_trace_that_writes_it(self):
        # A one-character edit of a written trace is refused with
        # ValueError, or read as a trace that writes the edited text.
        rng = random.Random(25)
        chars = '{}[]",:-0123456789aeosuz \\'
        for _ in range(40):
            w = sorted((rng.randint(-40, 40) for _ in range(rng.randint(0, 6))),
                       reverse=True)
            s = trace_to_json(iterate(w, ModularContext(7), rng.randint(0, 3)))
            for _ in range(30):
                i = rng.randrange(len(s) + 1)
                cut = rng.randint(0, 1)
                text = s[:i] + rng.choice(("", *chars)) + s[i + cut:]
                try:
                    t = trace_from_json(text)
                except ValueError:
                    continue
                assert trace_to_json(t) == text, (s, text)

    def test_children_omitted_on_leaves(self):
        t = iterate((0, 0), ModularContext(5), cap=2)
        assert trace_to_json(t) == '{"seq":[0,0],"status":"zeros"}'

    def test_matches_json_dumps(self):
        for w, p, cap in branchy_cases():
            t = iterate(w, ModularContext(p), cap)
            assert trace_to_json(t) == json.dumps(
                trace_dict(t), separators=(",", ":")
            ), (w, p, cap)

    @given(weights, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_random_matches_json_dumps(self, w, cap):
        t = iterate(w, ModularContext(7), cap)
        assert trace_to_json(t) == json.dumps(
            trace_dict(t), separators=(",", ":")
        )
