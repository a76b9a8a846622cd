# Fixture: REP091 violations — third-party packages loaded at import time.
import numpy as np
import scipy.optimize  # REP091: paid by every process that imports the package
from networkx import Graph  # REP091

try:
    import pandas  # REP091: a guarded import still runs at import time
except ImportError:
    pandas = None


class Trainer:
    from scipy.special import logsumexp  # REP091: class bodies run at import time

    def fit(self, objective, start):
        return scipy.optimize.minimize(objective, np.asarray(start))
