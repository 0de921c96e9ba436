// Package logic implements the boolean reasoning substrate Hoyan uses for
// topology conditions: hash-consed boolean formulas over binary variables
// (link aliveness, route-selection indicators) and a BDD engine that answers
// the questions the paper delegates to an SMT solver.
//
// Hoyan attaches a topology condition to every route update, RIB rule, FIB
// rule and packet branch. The operations the verification engine needs are:
//
//   - building conditions incrementally with And / Or / Not,
//   - deciding whether a condition is impossible (unsatisfiable),
//   - deciding whether every satisfying assignment needs more than k link
//     failures (the ">k failures" prune),
//   - computing the minimum number of link failures that violates a
//     reachability disjunction (MinFalse of the negation),
//   - simplifying conditions to keep formulas short (memory optimization,
//     §5.6 of the paper).
//
// All of these are pure boolean problems; a reduced ordered BDD with a
// min-cost dynamic program answers them exactly, which is why this package
// (plus package sat for model enumeration) is a faithful substitute for Z3.
//
// The kernel (bdd.go) has complement edges, so negation is free and
// disjunction is the complement of a conjunction: one apply, one computed
// cache. It keeps BDD nodes in one arena, interns them through an
// open-addressed table probed inline, and memoizes apply in a
// direct-mapped cache that overwrites on collision and is sized by the
// node table alone. What a formula comes out as (Simplify) is a function
// of the boolean function alone, whichever edge denotes it. What the cache forgets is recomputed into nodes that
// already exist, so no table size and no eviction changes a node id, a
// Simplify output or an exported byte (DESIGN.md, "Solver kernel"). For
// the same reason Recycle can empty a factory in place, keeping its
// tables, and leave it indistinguishable from a new one.
//
// The order the solver branches on variables in is given when a factory is
// made (Order, NewFactoryOrdered; internal/topo computes one per network
// from regions and names). It decides how many nodes an answer costs and
// the shape of what Simplify extracts, never an answer: formulas, and so
// everything exported or stored, range over the same variables under any
// order. The kernel works on levels; variables are translated to levels
// where build meets a literal and back where a formula or an assignment
// leaves, so the natural order is the same code with an empty table.
//
// A Factory is not safe for concurrent use. The simulation engine keeps
// one Factory per executor and recycles it between prefix simulations,
// mirroring the paper's per-prefix parallelism.
package logic
