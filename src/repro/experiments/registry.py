"""The experiment registry: ``EXPERIMENTS``, every driver by id.

Imported on first use of ``repro.experiments.EXPERIMENTS``, not with the
package, so that ``python -m repro.experiments.<driver>`` runs its module
once.
"""

from repro.experiments.engines import run_engines
from repro.experiments.fig01 import run_fig1a, run_fig1b
from repro.experiments.fig05 import run_fig5
from repro.experiments.fig06 import run_fig6a, run_fig6b
from repro.experiments.fig10 import run_fig10a, run_fig10b, run_fig10c
from repro.experiments.fig11 import run_fig11a, run_fig11b
from repro.experiments.fig12 import (
    run_fig12a,
    run_fig12b,
    static_instruction_savings,
)
from repro.experiments.fig13 import (
    run_fig13a_frequency,
    run_fig13a_ltu,
    run_fig13b,
)
from repro.experiments.fig14 import run_fig14a, run_fig14b
from repro.experiments.fig15 import run_area, run_fig15_gpu, run_fig15_olap
from repro.experiments.partitioning import (
    run_partitioning,
    run_partitioning_containment,
)
from repro.experiments.resilience import (
    run_resilience,
    run_resilience_hedged,
    run_resilience_monitoring,
)
from repro.experiments.scaling import run_policy_matrix, run_scaling
from repro.experiments.serving import run_serving, run_serving_autoscale

EXPERIMENTS = {
    "fig1a": run_fig1a,
    "fig1b": run_fig1b,
    "fig5": run_fig5,
    "fig6a": run_fig6a,
    "fig6b": run_fig6b,
    "fig10a": run_fig10a,
    "fig10b": run_fig10b,
    "fig10c": run_fig10c,
    "fig11a": run_fig11a,
    "fig11b": run_fig11b,
    "fig12a": run_fig12a,
    "fig12b": run_fig12b,
    "fig13a-freq": run_fig13a_frequency,
    "fig13a-ltu": run_fig13a_ltu,
    "fig13b": run_fig13b,
    "fig14a": run_fig14a,
    "fig14b": run_fig14b,
    "fig15-olap": run_fig15_olap,
    "fig15-gpu": run_fig15_gpu,
    "area": run_area,
    "instr-savings": static_instruction_savings,
    "partitioning": run_partitioning,
    "partitioning-containment": run_partitioning_containment,
    "resilience": run_resilience,
    "resilience-hedged": run_resilience_hedged,
    "resilience-monitoring": run_resilience_monitoring,
    "scaling": run_scaling,
    "scaling-policies": run_policy_matrix,
    "serving": run_serving,
    "serving-autoscale": run_serving_autoscale,
    "engines": run_engines,
}
