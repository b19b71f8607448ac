"""Fixture: a suppression must name a rule that exists."""


def misspelt(dirty):
    pool = set(dirty)
    # repro-lint: disable=DTE103 -- misspelt: silences nothing, DET103 still fires
    return list(pool)


def retired(value):
    return value  # repro-lint: disable=SHR404 -- a retired rule: no longer a code


def known_and_unknown(dirty):
    pool = set(dirty)
    return list(pool)  # repro-lint: disable=DET103,NOPE999 -- only the second is flagged


def kill_switch(value):
    return value  # repro-lint: disable=all -- "all" is not a rule code but is accepted
