"""Pure-SQL point-in-polygon oracle for DuckDB.

DuckDB's spatial extension cannot be installed offline, so exact join
results are validated with a crossing-number test expressed in plain SQL:
a point is inside a polygon iff a +x ray from it crosses an odd number of
that polygon's edges. This is an engine-independent re-derivation of the
join — it shares no code with the index or the numpy geometry, so it
catches bugs in either.

The crossing condition ``px < x1 + (py-y1)(x2-x1)/(y2-y1)`` is written in
multiplied-through (cross-product) form so horizontal edges never divide
by zero:

    ((px-x1)(y2-y1) - (py-y1)(x2-x1)) * sign(y2-y1) < 0

``PolygonSet.edges_pdf`` gives every edge upwards (``y1 <= y2``), so the
sign is +1 for every straddling edge, and the query computes
``polygon.ray_crossings`` operation for operation: the two agree bit for
bit, on boundary points too, while sharing no code.

Usage with :func:`repro.oracle.assert_equivalent`::

    assert_equivalent(spark_join_df, PIP_JOIN_SQL, points=points_pdf,
                      edges=pset.edges_pdf())
"""

_CROSSES = """
      ((e.y1 > p.y) <> (e.y2 > p.y))
  AND ((p.x - e.x1) * (e.y2 - e.y1) - (p.y - e.y1) * (e.x2 - e.x1))
      * (CASE WHEN e.y2 > e.y1 THEN 1 ELSE -1 END) < 0
"""

#: All (pid, poly_id) containment pairs.
PIP_JOIN_SQL = f"""
SELECT p.pid AS pid, e.poly_id AS poly_id
FROM points p
JOIN edges e
  ON {_CROSSES}
GROUP BY p.pid, e.poly_id
HAVING count(*) % 2 = 1
"""

#: Points per polygon — the aggregate the paper's probe phase computes.
PIP_COUNT_SQL = f"""
SELECT poly_id, count(*) AS n_points FROM (
    SELECT p.pid AS pid, e.poly_id AS poly_id
    FROM points p
    JOIN edges e
      ON {_CROSSES}
    GROUP BY p.pid, e.poly_id
    HAVING count(*) % 2 = 1
) GROUP BY poly_id
"""
