import hashlib
import weakref

import numpy as np
import pytest

from padlab.autodiff import Tape, Variable, backward, grad_check, np_dtype
from padlab.errors import ConfigError, GraphError, ShapeError
from padlab.nn import add, kaiming_init, mul, relu, sum_all
from padlab.rng import Rng


@pytest.mark.parametrize("make", [
    np_dtype,
    lambda tag: kaiming_init((2, 2), Rng(0), dtype=tag),
], ids=["np_dtype", "kaiming_init"])
@pytest.mark.parametrize("tag", ["f16", "float32", ["f32"]])
def test_unknown_dtype_tag_is_a_config_error_naming_the_valid_tags(make, tag):
    with pytest.raises(ConfigError, match="valid tags are f32, f64"):
        make(tag)


@pytest.mark.parametrize("shape", [[0, 2], [-1], [2, 0, 2, 2]])
def test_kaiming_init_rejects_bad_dims(shape):
    with pytest.raises(ShapeError):
        kaiming_init(shape, Rng(0))


def test_tensor_rank_bounds():
    with pytest.raises(ShapeError):
        Variable(np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(ShapeError):
        Variable(np.float32(3.0))  # rank 0
    with pytest.raises(ShapeError):
        Variable(np.zeros((2, 0)))


def test_variable_casts_other_dtypes_to_f64():
    assert Variable(np.arange(3)).data.dtype == np.float64
    assert Variable(np.ones(3, np.float16)).data.dtype == np.float64
    assert Variable(np.ones(3, np.float32)).data.dtype == np.float32


def test_backward_square_sum():
    x = Variable(np.array([3.0]), requires_grad=True)
    tape = Tape()
    loss = sum_all(mul(x, x, tape), tape)
    backward(loss, tape)
    assert np.allclose(x.grad, [6.0])


def test_backward_fanout_accumulates():
    x = Variable(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    tape = Tape()
    loss = sum_all(add(x, x, tape), tape)
    backward(loss, tape)
    assert np.allclose(x.grad, [2.0, 2.0, 2.0])


def test_backward_fanout_k_consumers_scales():
    def run(k):
        x = Variable(np.array([1.5, 2.5]), requires_grad=True)
        tape = Tape()
        acc = relu(x, tape)
        for _ in range(k - 1):
            acc = add(acc, relu(x, tape), tape)
        backward(sum_all(acc, tape), tape)
        return x.grad.copy()

    single = run(1)
    assert np.allclose(run(4), 4 * single)


def test_backward_rejects_nonscalar():
    x = Variable(np.array([1.0, 2.0]), requires_grad=True)
    tape = Tape()
    y = add(x, x, tape)
    with pytest.raises(GraphError):
        backward(y, tape)


def test_backward_returns_grad_map():
    x = Variable(np.array([2.0]), requires_grad=True)
    tape = Tape()
    loss = sum_all(mul(x, x, tape), tape)
    gmap = backward(loss, tape)
    assert x in gmap
    assert np.allclose(gmap[x], [4.0])


def test_grad_accumulates_across_backward_calls():
    x = Variable(np.array([1.0]), requires_grad=True)
    for _ in range(2):
        tape = Tape()
        backward(sum_all(mul(x, x, tape), tape), tape)
    assert np.allclose(x.grad, [4.0])
    x.zero_grad()
    assert np.allclose(x.grad, [0.0])


def _is_zero_view(arr, shape, dtype):
    return (arr.shape == shape and arr.dtype == dtype and not arr.any()
            and all(st == 0 for st in arr.strides) and not arr.flags.writeable)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_untouched_grad_is_a_read_only_zero_view(dtype):
    x = Variable(np.ones((2, 3, 4, 5), np_dtype(dtype)), requires_grad=True)
    assert _is_zero_view(x.grad, (2, 3, 4, 5), x.data.dtype)
    tape = Tape()
    backward(sum_all(mul(x, x, tape), tape), tape)
    assert x.grad.any() and x.grad.flags.writeable
    x.zero_grad()
    assert _is_zero_view(x.grad, (2, 3, 4, 5), x.data.dtype)
    with pytest.raises(ValueError):
        x.grad[0, 0, 0, 0] = 1.0
    assert Variable(np.ones(3)).grad is None


def test_negative_zero_gradient_lands_as_positive_zero():
    x = Variable(np.array([1.0, 2.0]), requires_grad=True)
    c = Variable(np.array([-0.0, 3.0]))
    tape = Tape()
    gmap = backward(sum_all(mul(x, c, tape), tape), tape)
    assert np.signbit(gmap[x]).tolist() == [True, False]
    assert x.grad.tobytes() == np.array([0.0, 3.0]).tobytes()


def test_fanout_and_repeated_backward_sum_exactly():
    x = Variable(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    for _ in range(2):
        tape = Tape()
        backward(sum_all(add(mul(x, x, tape), x, tape), tape), tape)
    assert x.grad.tobytes() == (2 * (2 * x.data + 1)).tobytes()


def test_grad_check_sum_is_tiny():
    x = Rng(0).normal((2, 3, 4, 4), dtype=np.float64)
    err = grad_check(lambda v, t: sum_all(v, t), x)
    assert err < 1e-10


def test_grad_check_requires_f64():
    from padlab.errors import NumericError
    with pytest.raises(NumericError):
        grad_check(lambda v, t: sum_all(v, t), np.zeros((2, 2), np.float32))


def test_grad_check_catches_wrong_gradient():
    # a deliberately broken op: forward x^2, backward pretends d/dx = x
    def broken(v, tape):
        out = Variable(np.sum(v.data ** 2).reshape(1), requires_grad=True)
        if tape is not None:
            tape.record((v,), out, lambda g: (g.reshape(()) * v.data,))
        return out

    x = np.array([1.0, 2.0], dtype=np.float64)
    assert grad_check(broken, x) > 0.1


def test_tensor_keeps_a_view_without_copying():
    base = np.arange(48, dtype=np.float32).reshape(3, 2, 2, 4)
    view = base.transpose(1, 0, 2, 3)  # channel-major memory, NCHW shape
    v = Variable(view)
    assert v.data is view
    assert v.shape == (2, 3, 2, 4)
    assert np.shares_memory(v.data, base)


def test_rng_determinism_long_streams():
    a = Rng(1234).uniform((10_000,), dtype=np.float64)
    b = Rng(1234).uniform((10_000,), dtype=np.float64)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [pytest.param(2**64, id="2**64"), -1,
                                  pytest.param(2**70, id="2**70")])
def test_rng_rejects_a_seed_outside_64_bits(seed):
    # masked, 2**64 and 2**70 were seed 0 and -1 was 2**64 - 1: distinct seeds,
    # one stream
    with pytest.raises(ConfigError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
        Rng(seed)
    assert Rng(0).seed == 0 and Rng(2**64 - 1).seed == 2**64 - 1


def test_rng_children_are_independent_and_stable():
    r = Rng(7)
    c1 = r.child("weights").normal((5,))
    # drawing from the parent does not shift the child stream
    r.uniform((100,))
    c2 = Rng(7).child("weights").normal((5,))
    assert c1.tobytes() == c2.tobytes()
    assert Rng(7).child("a").seed != Rng(7).child("b").seed


def test_rng_child_before_and_after_the_parents_first_draw_match():
    # the generator is built at the first draw; a child reads only the seed,
    # so deriving it before or after that draw gives the same stream
    early_parent = Rng(31)
    early = early_parent.child("w")
    early_parent.normal((4,))
    late_parent = Rng(31)
    late_parent.normal((4,))
    late = late_parent.child("w")
    assert early.seed == late.seed
    assert early.normal((8,), dtype=np.float64).tobytes() == \
        late.normal((8,), dtype=np.float64).tobytes()
    assert early.permutation(9).tobytes() == late.permutation(9).tobytes()


def test_rng_child_chain_draws_fixed_bytes():
    # fixed bytes of a three-level child chain and four kinds of draw; any
    # change to seeding, child derivation or draw order shows here
    r = Rng(2024).child("layer1").child("block1").child("weight")
    assert r.seed == 13508686186458745991
    parts = [r.normal((3, 4), dtype=np.float64),
             r.uniform((5,), -1.0, 1.0, dtype=np.float64),
             np.asarray(r.integers(0, 1000, (6,))), r.permutation(7)]
    digest = hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()
    assert digest == "3a0c3702687dbd51d1816246af1f33208ee6af591207dd8d86e27786bd337bad"


def _scaled(x, tape):
    """x * 2 through a backward closure that alone holds its saved array."""
    scale = np.full(x.shape, 2.0)
    out = Variable(x.data * scale, requires_grad=True)
    tape.record((x,), out, lambda g: (g * scale,))
    return out, weakref.ref(scale)


def test_backward_frees_each_entry_once_its_closure_has_run():
    x = Variable(np.ones(3), requires_grad=True)
    tape = Tape()
    h = relu(x, tape)  # recorded first, so swept last
    y, scale_ref = _scaled(h, tape)
    loss = sum_all(y, tape)
    first, run_first = tape.entries[0], tape.entries[0].backward_fn
    dead = []
    first.backward_fn = lambda g: (dead.append(scale_ref() is None), run_first(g))[1]
    backward(loss, tape)
    assert dead == [True] and len(tape) == 0
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_second_backward_on_a_swept_tape_raises():
    x = Variable(np.ones(3), requires_grad=True)
    tape = Tape()
    loss = sum_all(relu(x, tape), tape)
    backward(loss, tape)
    with pytest.raises(GraphError, match="already swept"):
        backward(loss, tape)
    assert np.array_equal(x.grad, np.ones(3))  # the second call added nothing
