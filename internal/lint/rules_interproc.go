package lint

import "strings"

// The interprocedural rules: checks over the module call graph rather
// than over single functions. They run once per Graph (built from the
// whole selected package set) instead of once per package.

// ruleLockCycle catches self-deadlock. sync.Mutex and sync.RWMutex are
// not reentrant: a goroutine that re-acquires a lock it already holds
// deadlocks itself. The sharded cache engine makes this easy to do by
// accident — eviction observers run UNDER the shard lock, so an
// observer that calls back into any Sharded method (Keys,
// StatsSnapshot, Handle, ...) re-locks the same shard mutex.
// SetEvictionObserver's documentation warns about exactly this;
// lock-cycle machine-checks it.
//
// For every lock acquisition the rule computes the held region (from
// the Lock call to its matching Unlock, or to the end of the function
// when the Unlock is deferred) and searches the call graph — through
// interface dispatch and stored function values, so observer callbacks
// are followed — for a path from any call inside that region to a
// function that acquires a lock of the same class. A lock's class is
// its field identity ("pkgpath.Owner.field", e.g.
// raven/internal/cache.shard.mu) or package-level variable; locks held
// in locals or parameters are skipped because their aliasing cannot be
// resolved statically. RLock->RLock paths are not reported (read locks
// are shared); Lock->Lock, Lock->RLock, and RLock->Lock all are, since
// each blocks against a holder. The finding points at the call site
// inside the held region and names the path to the re-acquisition.
func ruleLockCycle() Rule {
	return Rule{
		ID:         "lock-cycle",
		Doc:        "no call path may re-acquire a mutex that is already held (self-deadlock)",
		CheckGraph: checkLockCycle,
	}
}

// localLockClass reports classes derived from locals or opaque
// expressions, whose cross-function identity is unknown.
func localLockClass(class string) bool {
	return strings.HasPrefix(class, "local@") || strings.HasPrefix(class, "expr@")
}

// lockConflict reports whether holding `held` blocks against acquiring
// `acq` on the same lock class.
func lockConflict(heldRLock, acqRLock bool) bool {
	return !(heldRLock && acqRLock) // only RLock->RLock is compatible
}

func checkLockCycle(g *Graph) []Finding {
	var out []Finding
	for _, n := range g.Nodes {
		for _, ls := range n.Locks {
			if localLockClass(ls.Class) {
				continue
			}
			// Direct re-acquisition inside the same function.
			for _, other := range n.Locks {
				if other.Pos > ls.Pos && other.Pos < ls.End &&
					other.Class == ls.Class && lockConflict(ls.RLock, other.RLock) {
					out = append(out, n.Pkg.finding("lock-cycle", other.Pos,
						"%s re-acquires %s while already holding it (self-deadlock)",
						n.Name, ls.Class))
				}
			}
			// Interprocedural: calls inside the held region.
			for _, e := range n.Calls {
				if e.Pos <= ls.Pos || e.Pos >= ls.End {
					continue
				}
				if path := g.lockPath(e.To, ls.Class, ls.RLock); path != nil {
					out = append(out, n.Pkg.finding("lock-cycle", e.Pos,
						"%s calls %s while holding %s; the callee path %s re-acquires it (self-deadlock)",
						n.Name, e.To.Name, ls.Class, strings.Join(path, " -> ")))
				}
			}
		}
	}
	return out
}

// lockPath searches (BFS, deterministic order) from start for a
// function acquiring a conflicting lock of class cls, returning the
// call-chain names start..locker, or nil.
func (g *Graph) lockPath(start *FuncNode, cls string, heldRLock bool) []string {
	type item struct {
		n    *FuncNode
		prev *item
	}
	visited := map[*FuncNode]bool{start: true}
	queue := []*item{{n: start}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, ls := range it.n.Locks {
			if ls.Class == cls && lockConflict(heldRLock, ls.RLock) {
				var rev []string
				for p := it; p != nil; p = p.prev {
					rev = append(rev, p.n.Name)
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
		}
		for _, e := range it.n.Calls {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, &item{n: e.To, prev: it})
			}
		}
	}
	return nil
}
