"""Reference L1 histories for the tests.

``HistoryBuffer`` is the dense L1 history: the exact L1 sum over every
past state, whose memory and work grow with the step count.  The march
keeps the same sum in sum-of-exponentials form
(``fracplap.fractional.L1Memory``), folding its increments into the
sums in blocks; ``RecurrenceMemory`` applies that recurrence one step
at a time.
"""
import numpy as np

from fracplap.errors import GridMismatchError, HypothesisError
from fracplap.fractional import soe_kernel


def l1_weight_table(alpha: float, n: int) -> np.ndarray:
    """L1 weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j = 0 .. n-1, one
    scalar power at a time, apart from the package's own weight code."""
    return np.array([(j + 1.0) ** (1.0 - alpha) - float(j) ** (1.0 - alpha)
                     for j in range(n)])


def memory_coefficients(b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients c with sum(c) = 1 so that the L1 value at step n is
    scale * (u^n - c . (u^0, ..., u^{n-1})).

    c[0] = b_{n-1} and c[i] = b_{n-1-i} - b_{n-i} for 1 <= i <= n-1.
    """
    if n < 1 or n > b.shape[0]:
        raise HypothesisError(f"step index {n} outside the weight table of size {b.shape[0]}")
    c = np.empty(n, dtype=np.float64)
    c[0] = b[n - 1]
    if n > 1:
        c[1:] = b[n - 2::-1] - b[n - 1:0:-1]
    return c


class HistoryBuffer:
    """Dense store of all past states u^0 .. u^{n-1}, read by
    ``fracplap.fractional.memory_term`` like the march's ``L1Memory``.

    Snapshots are kept in one contiguous (capacity, size) array that
    doubles on demand; ``matrix()`` exposes the filled part without
    copying.  ``b`` holds the L1 weights b_0 .. b_{N-1} of an N-step march.
    """

    def __init__(self, u0: np.ndarray, b: np.ndarray):
        u0 = np.asarray(u0, dtype=np.float64)
        self.shape = u0.shape
        self.size = u0.size
        self.b = b
        self._data = np.empty((16, self.size), dtype=np.float64)
        self._n = 0
        self.append(u0)

    def __len__(self) -> int:
        return self._n

    def append(self, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.shape:
            raise GridMismatchError(
                f"snapshot shape {u.shape} does not match history shape {self.shape}")
        if self._n == self._data.shape[0]:
            grown = np.empty((2 * self._n, self.size), dtype=np.float64)
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = u.ravel()
        self._n += 1

    def matrix(self) -> np.ndarray:
        """View of shape (n, size), oldest state first."""
        return self._data[:self._n]

    def last(self) -> np.ndarray:
        return self._data[self._n - 1].reshape(self.shape)

    def snapshot(self, i: int) -> np.ndarray:
        return self._data[:self._n][i].reshape(self.shape)

    def coefficients(self) -> np.ndarray:
        return memory_coefficients(self.b, self._n)


class RecurrenceMemory:
    """The sum-of-exponentials L1 history updated on every append,
    A_l <- d_l A_l + (u^n - u^{n-1}) with d_l = exp(-s_l), read by
    ``fracplap.fractional.memory_term`` through the rows u^{n-1},
    A_1 .. A_K and the coefficients 1, -beta."""

    def __init__(self, u0: np.ndarray, alpha: float, horizon: int):
        u0 = np.asarray(u0, dtype=np.float64)
        self.shape = u0.shape
        nodes, w = soe_kernel(alpha, horizon)
        decay = np.exp(-nodes)
        beta = w * (1.0 - alpha) * decay * -np.expm1(-nodes) / nodes
        self._decay = decay[:, None]
        self._coefficients = np.concatenate(([1.0], -beta))
        self._data = np.zeros((nodes.size + 1, u0.size), dtype=np.float64)
        self._data[0] = u0.ravel()

    def append(self, u: np.ndarray) -> None:
        flat = np.asarray(u, dtype=np.float64).ravel()
        sums = self._data[1:]
        sums *= self._decay
        sums += flat - self._data[0]
        self._data[0] = flat

    def matrix(self) -> np.ndarray:
        return self._data

    def coefficients(self) -> np.ndarray:
        return self._coefficients
