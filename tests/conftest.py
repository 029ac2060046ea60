from contextlib import contextmanager

import pytest

import lvweights.enumeration as enumeration


@pytest.fixture(scope="session")
def forward_checked():
    """A context manager under which the forward map checks every weight
    the construction builds.  A preimage ``enumeration._preimage`` accepts
    must be weakly decreasing, and ``_lv_mu`` must map it to the target.
    A level-1 weight ``enumeration._neutral`` gives must be weakly
    decreasing, and ``_lv_mu`` must map it to its zero target exactly, so
    lv(w) = p * 0 at every p.  The cells accept by their moves alone and
    level 1 is a closed form, so this is their differential oracle.  It
    yields the list of weights checked so far.  Session-scoped, so that
    module fixtures can use it too."""

    @contextmanager
    def checked():
        preimage, neutral, seen = (enumeration._preimage,
                                   enumeration._neutral, [])

        def check(target, n, p):
            w = preimage(target, n, p)
            assert list(w) == sorted(w, reverse=True), (target, p, w)
            assert enumeration._lv_mu(w, p) == target, (target, p, w)
            seen.append(w)
            return w

        def check_neutral(target):
            w = neutral(target)
            assert list(w) == sorted(w, reverse=True), (target, w)
            assert enumeration._lv_mu(w) == target, (target, w)
            seen.append(w)
            return w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_preimage", check)
            mp.setattr(enumeration, "_neutral", check_neutral)
            yield seen

    return checked
