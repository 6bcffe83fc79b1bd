import pytest

from gyrodenoise import lane


def test_compute_lane_runs_blas_on_one_thread_and_restores_the_count():
    fns = lane._openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, put = fns
    before = get()
    put(2)
    try:
        with pytest.raises(RuntimeError):
            with lane.compute_lane() as open_lane:
                assert get() == 1
                assert open_lane.submit(get).result() == 1
                with lane.compute_lane():  # a nested block keeps the pin
                    assert get() == 1
                assert get() == 1
                raise RuntimeError
        after = get()
    finally:
        put(before)
    assert after == 2
