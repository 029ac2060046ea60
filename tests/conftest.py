from contextlib import contextmanager

import pytest

import lvweights.enumeration as enumeration


@pytest.fixture(scope="session")
def forward_checked():
    """A context manager under which the forward map checks every preimage
    ``enumeration._preimage`` accepts: it must be weakly decreasing, and
    ``_lv_mu`` must map it to the target.  The cells accept by their moves
    alone, so this is their differential oracle.  It yields the list of
    preimages checked so far.  Session-scoped, so that module fixtures
    can use it too."""

    @contextmanager
    def checked():
        preimage, seen = enumeration._preimage, []

        def check(target, n, p):
            w = preimage(target, n, p)
            assert list(w) == sorted(w, reverse=True), (target, p, w)
            assert enumeration._lv_mu(w, 1, p) == target, (target, p, w)
            seen.append(w)
            return w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_preimage", check)
            yield seen

    return checked
