"""Optimizers and learning-rate schedules.

The optimizer is the update rule ``U`` of Algorithm 1/2 in the paper: given
the (globally averaged) gradients it produces the weight update.  The
distributed layer (:mod:`repro.training`) always passes *already reduced*
gradients, so these optimizers are purely local.

The update path
---------------
Each rule is one in-place elementwise kernel (``_kernel``) that both
:meth:`Optimizer.step` and :meth:`Optimizer.step_windows` drive over 1-D
views, :data:`_BLOCK` elements at a time, with two block-sized scratch
arrays the optimizer keeps.  The kernel issues the ufuncs of the textbook
expression in the textbook order (``tests/test_optim_kernels.py`` holds
every rule to an oracle that spells the expression out), so a result is
bit-identical however the flat vector is cut into parameters, windows or
blocks; and because state (velocity, moments) is written through
``out=``, a steady-state step allocates nothing the size of a parameter.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.parameters import _ordered_named_parameters


class LearningRateSchedule:
    """Base class: maps a step index to a learning rate."""

    def lr(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        return self.lr(step)


class ConstantLR(LearningRateSchedule):
    """A constant learning rate."""

    def __init__(self, value: float) -> None:
        if not value > 0:
            raise ValueError(f"learning rate must be positive, got {value}")
        self.value = float(value)

    def lr(self, step: int) -> float:
        return self.value


def _as_schedule(lr) -> LearningRateSchedule:
    if isinstance(lr, LearningRateSchedule):
        return lr
    return ConstantLR(float(lr))


#: Elements per kernel block.  A block of every operand (parameter,
#: gradient, state, two scratch arrays: six for Adam) has to stay
#: cache-resident across the rule's dozen ufunc passes, and be long
#: enough to amortise their call overhead: on the 4 MB Adam step blocks of
#: 1 Ki / 4 Ki / 16 Ki / 64 Ki elements measured 7.2 / 4.2 / 3.4 / 3.6 ms,
#: unblocked 4.4 ms.
_BLOCK = 16 * 1024


class Optimizer:
    """Base optimizer operating on a module's parameters.

    Subclasses name their per-entry state arrays in :attr:`state_slots`
    and implement the rule once, in :meth:`_kernel`.
    """

    #: Names of this optimizer's per-entry state arrays (e.g.
    #: ``("velocity",)`` for momentum SGD); empty for stateless rules.
    state_slots: Tuple[str, ...] = ()

    def __init__(self, module: Module, lr, weight_decay: float = 0.0) -> None:
        if not weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.module = module
        self.schedule = _as_schedule(lr)
        self.weight_decay = weight_decay
        self.step_count = 0
        #: State arrays in :attr:`state_slots` order, per parameter
        #: (keyed by ``id(param)``) and per owned window (keyed by the
        #: ``"lo:hi"`` of :meth:`step_windows`).  Allocated on an entry's
        #: first update and written in place from then on.
        self._param_state: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._window_state: Dict[str, Tuple[np.ndarray, ...]] = {}
        #: Kernel temporaries, reused by every block of every step (not
        #: optimizer state: :meth:`state_bytes` does not count them).
        self._scratch = (np.empty(_BLOCK), np.empty(_BLOCK))

    @property
    def parameters(self) -> List[Parameter]:
        return self.module.parameters()

    def zero_grad(self) -> None:
        self.module.zero_grad()

    def current_lr(self) -> float:
        return self.schedule.lr(self.step_count)

    def step(self) -> None:
        """Apply one update using the gradients stored in the parameters."""
        lr = self.current_lr()
        for param in self.parameters:
            self._update(self._param_state, id(param), param.data, param.grad, lr)
        self.step_count += 1

    # ------------------------------------------------------------ sharding
    def step_windows(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        keys: Sequence[str],
    ) -> None:
        """One update step applied to *owned* parameter windows only (ZeRO-1).

        ``params[i]`` is a writable view of a flat-parameter window,
        ``grads[i]`` the matching (already reduced and averaged)
        gradient window, and ``keys[i]`` a stable identifier — the
        exchange uses ``"lo:hi"`` in global flat coordinates — that the
        lazily allocated per-window state (momentum, moments) is keyed
        by.  Because every update rule here is elementwise, applying it
        to windows of the flat vector is bit-identical to the per-parameter
        :meth:`step`; a rank therefore only ever materialises state for
        the ~1/P of the model it owns.  Counts as one step.
        """
        if not (len(params) == len(grads) == len(keys)):
            raise ValueError(
                f"step_windows needs parallel params/grads/keys, got lengths "
                f"{len(params)}/{len(grads)}/{len(keys)}"
            )
        lr = self.current_lr()
        for param, grad, key in zip(params, grads, keys):
            if param.shape != grad.shape:
                raise ValueError(
                    f"window {key!r}: parameter window has shape {param.shape} "
                    f"but gradient window has {grad.shape}"
                )
            self._update(self._window_state, str(key), param, grad, lr)
        self.step_count += 1

    # ------------------------------------------------------------ kernels
    def _update(self, store: Dict, key, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Run the rule over ``param`` in place, one cache-sized block at a time."""
        if not param.size:
            return
        state = store.get(key)
        if state is None:
            # C order whatever the parameter's layout: the flat views
            # below must never be copies.
            state = store[key] = tuple(np.zeros(param.shape) for _ in self.state_slots)
        if not param.flags.c_contiguous:
            # reshape(-1) of a non-contiguous array (a transposed view,
            # say) returns a *copy*, and a kernel writing into it would
            # update nothing: run the rule unblocked on the array itself.
            self._kernel(lr, np.empty(param.shape), np.empty(param.shape), param, grad, *state)
            return
        flat = [param.reshape(-1), grad.reshape(-1), *(s.reshape(-1) for s in state)]
        a, b = self._scratch
        for lo in range(0, param.size, _BLOCK):
            block = [x[lo : lo + _BLOCK] for x in flat]
            n = block[0].size
            self._kernel(lr, a[:n], b[:n], *block)

    def _kernel(self, lr: float, a: np.ndarray, b: np.ndarray,
                param: np.ndarray, grad: np.ndarray, *state: np.ndarray) -> None:
        """The update rule, in place on same-shaped arrays.

        ``param`` and ``state`` are written through ``out=``; ``a`` and
        ``b`` are scratch of the same shape; ``grad`` is only read.
        """
        raise NotImplementedError

    def _decayed(self, param: np.ndarray, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``grad + weight_decay * param`` written to ``out`` (``grad`` itself without decay)."""
        if not self.weight_decay:
            return grad
        np.multiply(param, self.weight_decay, out=out)
        return np.add(grad, out, out=out)

    # ------------------------------------------------------------ state
    def _slot_dict(self, arrays: Tuple[np.ndarray, ...]) -> Dict[str, np.ndarray]:
        return {slot: np.array(arr, copy=True) for slot, arr in zip(self.state_slots, arrays)}

    def _slot_arrays(self, slots: Dict, what: str) -> Tuple[np.ndarray, ...]:
        missing = [slot for slot in self.state_slots if slot not in slots]
        if missing:
            raise ValueError(
                f"state for {what} lacks slot(s) {missing}, has {sorted(slots)}"
            )
        return tuple(
            np.array(slots[slot], dtype=np.float64, order="C") for slot in self.state_slots
        )

    def state_dict(self) -> Dict:
        """Serializable optimizer state (checkpoint / sharded round-trip).

        Layout::

            {"step_count": int,
             "param_state":  {param_name: {slot: ndarray}},
             "window_state": {"lo:hi":    {slot: ndarray}}}

        Per-parameter state is keyed by the module's canonical parameter
        names, window state by the owned-window keys of
        :meth:`step_windows`; arrays are copies, so mutating the live
        optimizer does not corrupt a saved checkpoint.
        """
        param_state = {
            name: self._slot_dict(self._param_state[id(param)])
            for name, param in _ordered_named_parameters(self.module)
            if self._param_state.get(id(param))
        }
        window_state = {
            key: self._slot_dict(arrays) for key, arrays in self._window_state.items() if arrays
        }
        return {
            "step_count": int(self.step_count),
            "param_state": param_state,
            "window_state": window_state,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output; replaces all current state."""
        param_state = state.get("param_state", {})
        named = dict(_ordered_named_parameters(self.module))
        unknown = sorted(set(param_state) - set(named))
        if unknown:
            raise ValueError(
                f"state_dict references parameter(s) {unknown} not present "
                f"in the module"
            )
        by_param: Dict[int, Tuple[np.ndarray, ...]] = {}
        for name, slots in param_state.items():
            arrays = self._slot_arrays(slots, f"parameter {name!r}")
            shape = named[name].data.shape
            for slot, arr in zip(self.state_slots, arrays):
                if arr.shape != shape:
                    raise ValueError(
                        f"state for parameter {name!r} slot {slot!r} has "
                        f"shape {arr.shape}, parameter has {shape}"
                    )
            by_param[id(named[name])] = arrays
        by_window = {
            str(key): self._slot_arrays(slots, f"window {key!r}")
            for key, slots in state.get("window_state", {}).items()
        }
        self.step_count = int(state.get("step_count", 0))
        self._param_state = by_param
        self._window_state = by_window

    def state_bytes(self) -> int:
        """Bytes held in optimizer state arrays (0 for stateless rules).

        Under ZeRO-1 sharding only the owned windows are ever allocated,
        so this gauge drops to ~1/P of the unsharded footprint — the
        metric exported as ``repro_optimizer_state_bytes``.
        """
        return sum(
            arr.nbytes
            for store in (self._param_state, self._window_state)
            for arrays in store.values()
            for arr in arrays
        )


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional weight decay."""

    def _kernel(self, lr, a, b, param, grad):
        # param -= lr * (grad + weight_decay * param)
        np.multiply(self._decayed(param, grad, a), lr, out=a)
        np.subtract(param, a, out=param)


class MomentumSGD(Optimizer):
    """SGD with (optionally Nesterov) momentum — the paper's update rule."""

    state_slots = ("velocity",)

    def __init__(
        self,
        module: Module,
        lr,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(module, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.nesterov = nesterov

    def _kernel(self, lr, a, b, param, grad, vel):
        grad = self._decayed(param, grad, a)
        # vel = momentum * vel + grad
        np.multiply(vel, self.momentum, out=vel)
        np.add(vel, grad, out=vel)
        update = vel
        if self.nesterov:
            # update = grad + momentum * vel
            np.multiply(vel, self.momentum, out=b)
            update = np.add(grad, b, out=b)
        # param -= lr * update
        np.multiply(update, lr, out=b)
        np.subtract(param, b, out=param)


class Adam(Optimizer):
    """Adam optimizer."""

    state_slots = ("m", "v")

    def __init__(
        self,
        module: Module,
        lr,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module, lr, weight_decay)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError(f"betas must be in [0, 1), got beta1={beta1}, beta2={beta2}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _kernel(self, lr, a, b, param, grad, m, v):
        t = self.step_count + 1
        grad = self._decayed(param, grad, a)
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1 - self.beta1, out=b)
        np.add(m, b, out=m)
        # v = beta2 * v + (1 - beta2) * grad**2
        np.multiply(v, self.beta2, out=v)
        np.square(grad, out=b)
        np.multiply(b, 1 - self.beta2, out=b)
        np.add(v, b, out=v)
        # param -= lr * m_hat / (sqrt(v_hat) + eps), the hats bias-corrected;
        # the decayed gradient in ``a`` is dead from here on.
        np.divide(m, 1 - self.beta1**t, out=a)
        np.multiply(a, lr, out=a)
        np.divide(v, 1 - self.beta2**t, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(param, a, out=param)
