"""The benchmark plans' outputs, pinned to the digest that
``python -m tests.output_digest`` prints on its ``plans`` line, so that
byte identity of verdicts, representatives, Aut generators, |Aut| and
reports is checked on every run.  The census part of that digest takes
about half a minute and stays a manual run.

A change that is meant to alter these outputs updates ``PLANS_DIGEST``
and says why in CHANGES.md.
"""

import hashlib

PLANS_DIGEST = "aa134524740b84aedaf8e534e4d9446e106e593f8973e0152c02399465d23198"


def test_the_plan_outputs_keep_their_digest(tmp_path):
    from .output_digest import plan_results, result_digest

    digests = [result_digest(r, n) for r, n in plan_results(tmp_path)]
    assert len(digests) == 104
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == PLANS_DIGEST
