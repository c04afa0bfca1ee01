"""The d_S bound that lets the transported reports skip the cutoff's stencil.

``bubbling._settled_nodes`` proves, from the chart image of a base node
alone, that the cutoff is exactly 1 (or exactly 0) at the node and at every
point of its flow stencil.  These tests evaluate the cutoff at every one of
those points on every rung of the default ladder, with the step of each
report, and check the claim node by node.
"""

from dataclasses import replace

import numpy as np
import pytest

from cryamabe.bubbling import BubbleChart, _settled_nodes
from cryamabe.config import ExperimentConfig
from cryamabe.energy import YamabeConstants, _dirichlet_step
from cryamabe.heisenberg import ShellScheme, _flow_stencil, shell_nodes

LADDER = ExperimentConfig().rn_ladder
CENTER = np.array([1.0 + 0j, 0.0 + 0j])


@pytest.mark.parametrize("h_factor", [0.01, 0.02], ids=["dirichlet", "residual"])
@pytest.mark.parametrize("n", range(len(LADDER)))
def test_settled_nodes_have_an_exactly_constant_cutoff(n, h_factor):
    chart = BubbleChart.standard(CENTER, LADDER, YamabeConstants.create(1.0))
    conf, cut = chart.chart(n), chart.cutoff
    # the default reach of both reports on coarse grids
    scheme = replace(ShellScheme.reaching(4.0 / LADDER[n]), n_inner=24, n_shell=16)
    n_one = n_zero = 0
    for _, z, t, _ in shell_nodes(scheme):
        zeta = conf.map_zt(z, t)
        h = _dirichlet_step(z, t, h_factor)
        one, zero = _settled_nodes(chart, n, zeta, h)
        assert not np.any(one & zero)
        betas = [cut.value(zeta)]
        for _, (zp, tp), (zm, tm) in _flow_stencil(z, t, h):
            betas += [cut.value(conf.map_zt(zp, tp)), cut.value(conf.map_zt(zm, tm))]
        for beta in betas:
            assert np.all(beta[one] == 1.0)
            assert np.all(beta[zero] == 0.0)
        n_one += int(one.sum())
        n_zero += int(zero.sum())
    assert n_one > 0 and n_zero > 0
