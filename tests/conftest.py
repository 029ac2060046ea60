from contextlib import contextmanager

import pytest

import lvweights.enumeration as enumeration
from lvweights.counting import partitions_mult


@pytest.fixture(scope="session")
def forward_checked():
    """A context manager under which the forward map checks every weight
    the construction builds.  A preimage ``enumeration._preimage`` accepts
    must be weakly decreasing, and ``_lv_mu`` must map it to the target.
    Each level-1 weight ``enumeration._level_one`` gives must be weakly
    decreasing, and ``_lv_mu`` must map it exactly to the zero target of
    its shape alpha, so lv(w) = p * 0 at every p.  The cells accept by
    their moves alone and level 1 is a closed form, so this is their
    differential oracle.  It yields the list of weights checked so far.
    Session-scoped, so that module fixtures can use it too."""

    @contextmanager
    def checked():
        preimage, level_one, seen = (enumeration._preimage,
                                     enumeration._level_one, [])

        def check(target, n, p):
            w = preimage(target, n, p)
            assert list(w) == sorted(w, reverse=True), (target, p, w)
            assert enumeration._lv_mu(w, p) == target, (target, p, w)
            seen.append(w)
            return w

        def check_level_one(l):
            ws = level_one(l)
            alphas = partitions_mult(l)[1:]
            assert len(ws) == len(alphas), l
            for w, alpha in zip(ws, alphas):
                target = tuple((0,) * m for m in alpha.mult)
                assert list(w) == sorted(w, reverse=True), (target, w)
                assert enumeration._lv_mu(w) == target, (target, w)
            seen.extend(ws)
            return ws

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_preimage", check)
            mp.setattr(enumeration, "_level_one", check_level_one)
            yield seen

    return checked
