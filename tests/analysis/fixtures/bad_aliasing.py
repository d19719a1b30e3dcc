# ruff: noqa
"""Seeded aliasing/in-place violations for the analysis test-suite.

Never imported — parsed with ``ast`` only.  Each function mutates memory that
may alias a caller's array; one site carries the waiver marker so the waiver
inventory path is exercised too.
"""

import numpy as np


def mutates_param(values):
    values *= 2.0  # AL001: augmented assignment on a parameter
    return values


def writes_into_param(out, vals):
    out[:] = vals  # AL002: slice assignment into a parameter
    return out


def ufunc_out_on_param(values):
    np.exp(values, out=values)  # AL003: ufunc out= aimed at a parameter
    return values


def derived_alias_mutation(scores):
    buf = scores.values  # still the caller's memory
    buf += 1.0  # AL001: mutation through an attribute-derived alias
    return buf


def loop_alias_mutation(planes, keep):
    for plane, kept in zip(planes, keep):  # each plane is the caller's memory
        plane *= kept  # AL001: mutation through a loop target bound from zip
    return planes


def copyto_into_param(dst, src):
    np.copyto(dst, src)  # AL004: copyto into a parameter
    return dst


def comprehension_alias_mutation(bufs, rows):
    tile, scratch = (b[:rows] for b in bufs)  # slices of the caller's buffers
    tile += 1.0  # AL001: mutation through a comprehension-derived alias
    return scratch


def waived_site(values):
    acc = values.reshape(-1)  # view: same memory
    # repro: owns-buffer — fixture: documented intentional reuse
    acc[0] = 0.0
    return acc
