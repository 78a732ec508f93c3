"""RP03 fixture: a stray pickle import (no file is exempt)."""

import pickle


def load(data):
    return pickle.loads(data)
