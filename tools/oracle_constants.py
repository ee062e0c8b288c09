#!/usr/bin/env python3
"""High-accuracy reference constants for the regression tests.

Everything here is computed with mpmath adaptive quadrature, completely
independently of the package code, so the values frozen into the test
suite act as an external oracle.  Run this script to regenerate them:

    python3 tools/oracle_constants.py

The printed values are pasted into the tests as literals; each test
cites the section name printed here.
"""

import mpmath as mp

mp.mp.dps = 30

GAMMA = mp.euler


def bulk_kernel(p, T, mu):
    """F(p) = tanh((p^2-mu)/(2T))/(p^2-mu), with the p^2=mu limit 1/(2T)."""
    x = (p * p - mu) / (2 * T)
    if abs(x) < mp.mpf("1e-12"):
        return 1 / (2 * T)
    return mp.tanh(x) / (x * 2 * T)


def int_F_halfline(T, mu):
    """integral_0^inf F(p) dp, split at the tanh crossover p = sqrt(mu)."""
    s = mp.sqrt(mu)
    # geometric approach points both sides of the crossover, down to ~T/10
    pts = [mp.mpf(0)]
    k = mp.mpf(1)
    while k * mu > T / 10:
        pts.append(s * mp.sqrt(1 - k))
        k = k / 4
    pts.append(s)
    ks = []
    k = mp.mpf(1)
    while k * mu > T / 10:
        ks.append(k)
        k = k / 4
    for k in reversed(ks):
        pts.append(s * mp.sqrt(1 + k))
    pts += [2 * s, 4 * s, 10 * s, 100 * s, 1000 * s, mp.inf]
    return mp.quad(lambda p: bulk_kernel(p, T, mu), pts)


def a_value(T, mu):
    """a_{T,mu} = (1/2pi) integral_R F = (1/pi) integral_0^inf F."""
    return int_F_halfline(T, mu) / mp.pi


def print_const(name, val):
    print(f"{name} = {mp.nstr(val, 17)}")


print("## section a10: essential edge at T=1, mu=0")
a10 = a_value(mp.mpf(1), mp.mpf(0))
print_const("a_1_0", a10)

print()
print("## section a_at_Tem3: a(T=1e-3, mu=1) and its log-asymptotic residual")
aT = a_value(mp.mpf("1e-3"), mp.mpf(1))
asy = (mp.log(1 / mp.mpf("1e-3")) + GAMMA + mp.log(8 / mp.pi)) / mp.pi
print_const("a_1em3_mu1", aT)
print_const("asy_1em3_mu1", asy)
print_const("a_residual_1em3", aT - asy)

print()
print("## section int_F_residual: r(T) = int_R F dp - 2(ln(mu/T)+gamma+ln(8/pi)), mu=1")
for Ts in ["1e-1", "1e-2", "1e-3", "1e-4", "1e-5", "1e-6"]:
    T = mp.mpf(Ts)
    r = 2 * int_F_halfline(T, mp.mpf(1)) - 2 * (mp.log(1 / T) + GAMMA + mp.log(8 / mp.pi))
    print_const(f"r_{Ts}", r)

print()
print("## section tail_bound: closed-form value at mu=1, Lambda=50")
# integral_{|q|>L} sup_p B <= 2 * integral_L^inf 4/(q^2-4mu) dq for L > 2 sqrt(mu)
mu = mp.mpf(1)
L = mp.mpf(50)
a = 2 * mp.sqrt(mu)
val = 2 * 4 * mp.log((L + a) / (L - a)) / (2 * a)
print_const("tail_bound_mu1_L50", val)
# brute-force cross-check on B(0,q) only (lower quantity, must stay below bound)
bf = 2 * mp.quad(lambda q: bulk_kernel(q / 2, mp.mpf(1), mu), [L, 2 * L, 10 * L])
print_const("bruteforce_int_B0q_L_to_10L", bf)

print()
print("## section trial_state: 1-D pieces at mu=1, b=1, T=1e-4")
# I_g = integral_R B(0,q) ghat(q) dq, ghat(q) = exp(-(q-2 sqrt(mu))^2 / b)
mu = mp.mpf(1)
T = mp.mpf("1e-4")
b = mp.mpf(1)


def ghat(q):
    return mp.exp(-((q - 2 * mp.sqrt(mu)) ** 2) / b)


def B0(q):
    return bulk_kernel(q / 2, T, mu)


s2 = 2 * mp.sqrt(mu)
# fold the line integral onto [0, inf); crossover of B(0,q) sits at q = s2
# with width ~4T, so surround it with a geometric ladder of break points
fine = []
k = mp.mpf("0.1")
while k > 2 * T:
    fine += [s2 - k, s2 + k]
    k = k / 8
pts = sorted([0, s2 / 2, s2] + fine) + [2 * s2, 4 * s2, mp.inf]
I_g = mp.quad(
    lambda q: B0(q) * (ghat(q) + ghat(-q)), pts, maxdegree=12
)
print_const("I_g_mu1_b1_T1em4", I_g)
print_const("B00_mu1_T1em4", bulk_kernel(mp.mpf(0), T, mu))
print_const("lead_term", -bulk_kernel(mp.mpf(0), T, mu) / 4)
# sandwich: (ln(mu/T))^-1 I_g against (4/sqrt(mu)) e^{-4 mu/b} and 4/sqrt(mu)
lnr = mp.log(mu / T)
print_const("sandwich_ratio", I_g / lnr)
print_const("sandwich_lo", 4 / mp.sqrt(mu) * mp.exp(-4 * mu / b))
print_const("sandwich_hi", 4 / mp.sqrt(mu))

print()
print("## section A_off_node: A(p) = (1/2pi) integral_0^inf B(p,q) dq, mu=1")
mu = mp.mpf(1)


def boundary_kernel(p, q, T, mu):
    """B(p,q) = (tanh(x/2T) + tanh(y/2T)) / (x + y), x = ((p+q)/2)^2 - mu,
    y = ((p-q)/2)^2 - mu, with the x + y = 0 limit sech^2(x/2T) / (2T)."""
    x = ((p + q) / 2) ** 2 - mu
    y = ((p - q) / 2) ** 2 - mu
    if abs(x + y) < mp.mpf("1e-25"):
        return (1 - mp.tanh(x / (2 * T)) ** 2) / (2 * T)
    return (mp.tanh(x / (2 * T)) + mp.tanh(y / (2 * T))) / (x + y)


def A_value(p, T, mu):
    """A(p), split at B(p,.)'s crossovers q = |2 sqrt(mu) -/+ p| and at the
    removable circle p^2 + q^2 = 4 mu, each crossover (width ~2T/sqrt(mu))
    surrounded by a geometric ladder of break points down to ~T/10."""
    s2 = 2 * mp.sqrt(mu)
    pts = {mp.mpf(0), abs(s2 - p), s2 + p}
    if p < s2:
        pts.add(mp.sqrt(s2 * s2 - p * p))
    for c in (abs(s2 - p), s2 + p):
        k = mp.mpf("0.25")
        while k > T / 10:
            pts.update(x for x in (c - k, c + k) if x > 0)
            k = k / 4
    top = s2 + p
    pts = sorted(pts) + [4 * top, 10 * top, 100 * top, 1000 * top, mp.inf]
    return mp.quad(lambda q: boundary_kernel(p, q, T, mu), pts) / (2 * mp.pi)


print_const("A_p0p77_T1em2_mu1", A_value(mp.mpf("0.77"), mp.mpf("1e-2"), mu))
print_const("A_p1p9_T1em3_mu1", A_value(mp.mpf("1.9"), mp.mpf("1e-3"), mu))

print()
print("## section A_octave: A(p) past the grid's core at T=1e-3, mu=1")
# 13073.33284155418 is a node of the tol-1e-8 grid there, far enough out
# that a plain grid sum misses the dip of B(p, .) between its crossovers
for ps in ["167.771", "1000", "13073.33284155418"]:
    name = f"A_p{ps.replace('.', 'p')}_T1em3_mu1"
    print_const(name, A_value(mp.mpf(ps), mp.mpf("1e-3"), mu))
