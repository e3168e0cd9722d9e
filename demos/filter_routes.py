"""Three routes to the same safe input.

One scalar instance solved by the exact interval projection, the ball
route and the per-channel split route. All three must land on the same
u. A second, two-channel instance compares per-channel levels (split
route) with one common level (ball route); past one channel both routes
still solve exactly, by a prox step at the root of one monotone scalar
function, with no cone solver.
"""

import numpy as np

from rcbf_shield.filters import (
    filter_qp_channels,
    filter_scalar,
    filter_socp,
    robust_margin,
)


def show(tag, res):
    print(f"  {tag:<8} u = {np.array2string(res.u, precision=9)}  "
          f"margin = {res.margin:+.2e}")


def main():
    p, theta = -1.0, 0.5
    a = np.array([1.0])
    u0 = np.array([0.0])
    print(f"scalar instance: p = {p}, a = {a[0]}, theta = {theta}, u0 = {u0[0]}")
    print(f"baseline margin = {robust_margin(p, a, u0, theta):+.3f} (unsafe)")
    show("interval", filter_scalar(p, a, u0, theta))
    show("cone", filter_socp(p, a, u0, theta))
    show("split", filter_qp_channels(p, a, u0, np.array([theta])))
    print("  the constraint u - 0.5|u| >= 1 pins the answer at exactly 2")

    print("\ntwo channels, mixed levels:")
    p = -2.0
    a = np.array([1.5, -0.5])
    u0 = np.array([0.3, 0.4])
    theta_vec = np.array([0.4, 0.1])
    res = filter_qp_channels(p, a, u0, theta_vec)
    show("split", res)
    print(f"  per-channel worst case w* = {np.round(res.w_star, 9)}")

    # same instance at the common level: the coupled ball is more cautious
    # than the per-channel boxes whenever several channels act at once
    res_ball = filter_socp(p, a, u0, 0.4)
    show("cone", res_ball)
    print(f"  coupled-ball correction ||u - u0|| = "
          f"{np.linalg.norm(res_ball.u - u0):.6f}")
    print(f"  per-channel correction  ||u - u0|| = "
          f"{np.linalg.norm(res.u - u0):.6f}")


if __name__ == "__main__":
    main()
