import signal

import pytest

from cyheights import finite_field


@pytest.fixture
def deadline():
    """Raise TimeoutError in a test still running after 5 s: the inputs it
    guards are answered in milliseconds, so a slow algorithm fails the test
    instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def walk_breakers():
    """Two ways to break the walk of powers so that it never returns to 1,
    each a function of a monkeypatch: a block kernel whose every product
    is 2, and images of multiplication by 1 in place of those of the
    given power.  Each leaves the walk's closing check as the only
    guard."""
    def break_kernel(patch):
        patch.setattr(finite_field, "_block_products",
                      lambda p, f, block, images: iter(
                          lambda: [2] * len(block), None))

    def break_images(patch):
        patch.setattr(finite_field._Ring, "images", lambda ring, y: [
            [int(i == k) for i in range(ring.f)] for k in range(ring.f)])

    return {"kernel": break_kernel, "images": break_images}
