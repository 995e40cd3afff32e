"""Hook-length counts over t-regular partitions, computed two independent ways.

The package pairs an exhaustive diagram-enumeration oracle with exact
truncated q-series expansions, and ships drivers that certify the
injections and sign theorems relating the 1-, 2- and 3-hook counts.
"""

from .partitions import (
    Partition,
    hook_multiset,
    partitions_of,
    t_regular_partitions,
)
from .series import Series, divide_unit, pochhammer_inf, t_regular_gf
from .hookgf import (
    btk_enum,
    btk_gf,
    btk_series,
    decomposition_series,
    distinct_partition_count,
    set_cardinality_series,
)
from .injections import (
    FAMILIES,
    MAPS,
    SubsetLabel,
    VerificationReport,
    o5_weight_bound,
    verify_injection,
)
from .checks import TheoremCheck, run_oracle_crosscheck, run_thm12, run_thm13

__version__ = "0.1.0"
