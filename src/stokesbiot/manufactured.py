"""Closed-form verification solution on [0,1] x [-1,1] with interface y = 0.

The free-fluid fields live on the upper half, the poroelastic fields on the
lower half.  The construction satisfies all three interface conditions with
viscosity 1, unit isotropic permeability, Biot-Willis coefficient 1 and equal
Lame coefficients; the Darcy velocity is the exact Darcy flux -K grad(p)/mu
of the pore pressure.  Body and mass sources follow by substituting into the
strong equations.

Every field is a fixed spatial field times one of the time functions
e^t, sin(pi t) and its derivative pi cos(pi t), with
U = (-3x + cos y, y + 1) and P = sin(pi x) cos(pi y / 2):
u_f = U d/dt sin(pi t), eta = U sin(pi t), p_p = P e^t and
p_f = p_p + 2 d/dt sin(pi t).  The fields are ``Separable``, so the sources
derived from them are too and a load assembles once per time function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PhysicalParams, Separable

PI = math.pi


def verification_params() -> PhysicalParams:
    """Coefficients under which the closed forms solve the coupled system."""
    return PhysicalParams(mu=1.0, K=1.0, lam_p=1.0, mu_p=1.0,
                          alpha=1.0, s0=1.0, alpha_bjs=1.0)


@dataclass
class ManufacturedSolution:
    """Exact fields as ``Separable`` sums of spatial fields times time
    functions, called with (points (n, 2), t), plus the derivatives source
    derivation and error norms need."""

    uf: Separable
    grad_uf: Separable         # (n, 2, 2), [i, j] = d u_i / d x_j
    div_uf: Separable
    laplace_uf: Separable
    grad_div_uf: Separable
    pf: Separable
    grad_pf: Separable
    up: Separable
    div_up: Separable
    pp: Separable
    grad_pp: Separable
    dt_pp: Separable
    eta: Separable
    grad_eta: Separable
    laplace_eta: Separable
    grad_div_eta: Separable
    dt_eta: Separable
    dt_div_eta: Separable
    lam: Separable             # interface trace of the pore pressure


def _sin(t):
    return math.sin(PI * t)


def _dt_sin(t):
    return PI * math.cos(PI * t)


def example1_solution() -> ManufacturedSolution:
    def U(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([-3.0 * x + np.cos(y), y + 1.0])

    def grad_U(p):
        g = np.zeros((len(p), 2, 2))
        g[:, 0, 0] = -3.0
        g[:, 0, 1] = -np.sin(p[:, 1])
        g[:, 1, 1] = 1.0
        return g

    def laplace_U(p):
        return np.column_stack([-np.cos(p[:, 1]), np.zeros(len(p))])

    def P(p):
        x, y = p[:, 0], p[:, 1]
        return np.sin(PI * x) * np.cos(0.5 * PI * y)

    def grad_P(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([PI * np.cos(PI * x) * np.cos(0.5 * PI * y),
                                -0.5 * PI * np.sin(PI * x) * np.sin(0.5 * PI * y)])

    def const(c):
        return lambda p: np.full(len(p), c)

    uf, eta = Separable(U, _dt_sin), Separable(U, _sin)
    div_uf = Separable(const(-2.0), _dt_sin)
    pp, grad_pp = Separable(P, math.exp), Separable(grad_P, math.exp)
    return ManufacturedSolution(
        uf=uf, grad_uf=Separable(grad_U, _dt_sin), div_uf=div_uf,
        laplace_uf=Separable(laplace_U, _dt_sin),
        grad_div_uf=0.0 * uf,     # div U is constant
        pf=pp + Separable(const(2.0), _dt_sin),
        grad_pf=grad_pp,          # pf and pp differ by a spatially constant term
        up=-grad_pp,              # exact Darcy flux -K grad(pp) / mu with K = I, mu = 1
        div_up=1.25 * PI**2 * pp, pp=pp, grad_pp=grad_pp, dt_pp=pp,
        eta=eta, grad_eta=Separable(grad_U, _sin), laplace_eta=Separable(laplace_U, _sin),
        grad_div_eta=0.0 * eta, dt_eta=uf, dt_div_eta=div_uf,
        lam=Separable(lambda p: np.sin(PI * p[:, 0]), math.exp))   # pp on y = 0


def derive_sources(ms: ManufacturedSolution, params: PhysicalParams):
    """Body forces and mass sources from the strong equations.

    f_f = grad(pf) - mu (lap(uf) + grad(div uf)),   q_f = div uf,
    f_p = -mu_p (lap(eta) + grad(div eta)) - lam_p grad(div eta)
          + alpha grad(pp),
    q_p = s0 dt(pp) + alpha dt(div eta) + div up.
    Constant Lame / viscosity coefficients are assumed.  The fields are
    combined term by term, so the sources are ``Separable`` in the time
    functions of the solution.
    """
    mu = params.mu
    mu_p = float(np.asarray(params.mu_p).ravel()[0])
    lam_p = float(np.asarray(params.lam_p).ravel()[0])
    alpha, s0 = params.alpha, params.s0
    ff = ms.grad_pf - mu * (ms.laplace_uf + ms.grad_div_uf)
    qf = ms.div_uf
    fp = (-mu_p * (ms.laplace_eta + ms.grad_div_eta)
          - lam_p * ms.grad_div_eta + alpha * ms.grad_pp)
    qp = s0 * ms.dt_pp + alpha * ms.dt_div_eta + ms.div_up
    return ff, qf, fp, qp
