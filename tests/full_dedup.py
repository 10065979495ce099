"""The dedup stage as it was before it normalized only the texts of users with two or more rows.

It is kept as a differential oracle: every row's text is normalized and
coded, a user's only row included. The package's ``dedup`` skips those
rows, whose user has no other row to repeat, so the two must keep the same
rows and report the same count.
"""

import numpy as np

from museumflows.pipeline import _kept, _normalized_text


def dedup(corpus):
    """Within each user, keep the earliest tweet per normalized text.

    Normalization strips URL-shaped substrings and collapses whitespace, so
    reposts that differ only in an embedded link collapse to one tweet.
    The URL pattern runs only on texts holding ``://`` or ``t.co/`` (any
    case), where each of its matches lies. Earliest is by (timestamp, id):
    rows are sorted by (user, microsecond), stably, and only the runs of
    equal (user, microsecond) are then put in id order, by a stable sort of
    their ids, so equal ids keep their row order.
    """
    n = len(corpus)
    text_code: dict[str, int] = {}
    texts = np.fromiter(
        (text_code.setdefault(_normalized_text(t), len(text_code)) for t in corpus.texts.tolist()),
        dtype=np.int64,
        count=n,
    )
    order = np.lexsort((corpus.stamp_us, corpus.user))
    user, stamp_us = corpus.user[order], corpus.stamp_us[order]
    tied = (user[1:] == user[:-1]) & (stamp_us[1:] == stamp_us[:-1])  # position k + 1 ties with k
    in_run = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
    run = np.cumsum(np.insert(~tied, 0, True))[in_run]
    members = order[in_run]
    id_rank = np.empty(len(members), dtype=np.int64)
    id_rank[np.argsort(corpus.ids[members], kind="stable")] = np.arange(len(members))
    order[in_run] = members[np.lexsort((id_rank, run))]  # users stay where they were
    _, first = np.unique(user * max(len(text_code), 1) + texts[order], return_index=True)
    keep = np.zeros(n, dtype=bool)
    keep[order[first]] = True
    return _kept("dedup", corpus, keep)
