"""Hook-length counts over t-regular partitions, computed two independent ways.

The package pairs an exhaustive diagram-enumeration oracle with exact
truncated q-series expansions, and ships drivers that certify the
injections and sign theorems relating the 1-, 2- and 3-hook counts.

The root binds only ``__version__``; every name is imported from its submodule.
"""

__version__ = "0.1.0"
