package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the package's lock-acquisition graph — an edge A → B
// means some code path acquires mutex B while holding mutex A — and
// flags cycles, the static signature of a lock-ordering deadlock: one
// goroutine holding A and waiting for B while another holds B and waits
// for A.
//
// Mutexes are identified by owning struct type and field name (e.g.
// Registry.mu) or by package-level variable name, so two instances of
// the same type share a node: inconsistent ordering across instances of
// one type is exactly as much of a hazard as across distinct mutexes,
// and nesting the same key (a self-edge) is flagged too, since
// sync.Mutex is not reentrant.
//
// Acquisitions are tracked lexically per function (like lockcheck), and
// propagated one call deep: a call to a same-package function made while
// holding A contributes edges from A to every lock that callee (or its
// same-package callees, transitively) acquires. Calls through function
// values and interfaces are not followed.
var LockOrder = &Pass{
	Name: "lockorder",
	Doc:  "flag cycles in the package's lock-acquisition graph (potential deadlocks)",
	Run:  runLockOrder,
}

// lockEventKind discriminates the records collected per function.
type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evCall
)

// orderEvent is one lock-relevant happening in a function body, in
// lexical order: an acquire (Lock/RLock), a non-deferred release
// (Unlock/RUnlock), or a static call to a same-package function.
type orderEvent struct {
	kind   lockEventKind
	pos    token.Pos
	key    string      // evAcquire/evRelease: the lock's node key
	callee *types.Func // evCall
}

// lockEdge is one lock-order edge with the position that introduced it.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(u *Unit) []Diagnostic {
	// Collect per-function event streams and the FuncDecl index.
	events := map[*types.Func][]orderEvent{}
	var fnOrder []*types.Func
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			events[fn] = collectOrderEvents(u, fd)
			fnOrder = append(fnOrder, fn)
		}
	}
	if len(events) == 0 {
		return nil
	}

	// Summaries: every lock a function may acquire, including through
	// same-package callees (fixed depth via memoized DFS).
	summaries := map[*types.Func]map[string]bool{}
	var summarize func(fn *types.Func, stack map[*types.Func]bool) map[string]bool
	summarize = func(fn *types.Func, stack map[*types.Func]bool) map[string]bool {
		if s, ok := summaries[fn]; ok {
			return s
		}
		if stack[fn] {
			return nil // recursion: the cycle guard breaks the walk
		}
		stack[fn] = true
		defer delete(stack, fn)
		s := map[string]bool{}
		for _, e := range events[fn] {
			switch e.kind {
			case evAcquire:
				s[e.key] = true
			case evCall:
				for k := range summarize(e.callee, stack) {
					s[k] = true
				}
			case evRelease:
				// releases do not shrink the may-acquire summary
			}
		}
		summaries[fn] = s
		return s
	}
	for _, fn := range fnOrder {
		summarize(fn, map[*types.Func]bool{})
	}

	// Edges: replay each function's events with a held-lock multiset.
	edgeAt := map[string]lockEdge{}
	addEdge := func(from, to string, pos token.Pos) {
		key := from + "\x00" + to
		if old, ok := edgeAt[key]; !ok || pos < old.pos {
			edgeAt[key] = lockEdge{from: from, to: to, pos: pos}
		}
	}
	for _, fn := range fnOrder {
		held := map[string]int{}
		for _, e := range events[fn] {
			switch e.kind {
			case evAcquire:
				for _, k := range sortedLockKeys(held) {
					if held[k] > 0 {
						addEdge(k, e.key, e.pos)
					}
				}
				held[e.key]++
			case evRelease:
				held[e.key]--
			case evCall:
				for _, k := range sortedLockKeys(held) {
					if held[k] <= 0 {
						continue
					}
					for _, to := range sortedLockKeys(summaries[e.callee]) {
						addEdge(k, to, e.pos)
					}
				}
			}
		}
	}
	if len(edgeAt) == 0 {
		return nil
	}

	// Adjacency in sorted order for deterministic cycle reports. Edge
	// keys sort as "from\x00to", so each adjacency list comes out sorted.
	adj := map[string][]string{}
	for _, k := range sortedLockKeys(edgeAt) {
		e := edgeAt[k]
		adj[e.from] = append(adj[e.from], e.to)
	}
	nodes := sortedLockKeys(adj)

	var diags []Diagnostic
	seen := map[string]bool{}
	for _, start := range nodes {
		cycle := findCycle(adj, start)
		if cycle == nil {
			continue
		}
		key := strings.Join(cycle, "→")
		if seen[key] {
			continue
		}
		seen[key] = true
		// Anchor the report at the earliest edge of the cycle.
		var at lockEdge
		for i := range cycle {
			e := edgeAt[cycle[i]+"\x00"+cycle[(i+1)%len(cycle)]]
			if at.pos == token.NoPos || e.pos < at.pos {
				at = e
			}
		}
		path := strings.Join(append(append([]string{}, cycle...), cycle[0]), " → ")
		diags = append(diags, Diagnostic{
			Pass:    "lockorder",
			Pos:     u.Fset.Position(at.pos),
			Message: "lock-order cycle " + path + ": these mutexes are acquired in inconsistent order, so two goroutines can deadlock; pick one order (or merge the locks)",
		})
	}
	return diags
}

// sortedLockKeys returns m's keys in sorted order, keeping graph
// construction and cycle reports independent of map iteration order.
func sortedLockKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// findCycle returns a cycle reachable from start as a canonical node
// list (rotated so the smallest node leads), or nil.
func findCycle(adj map[string][]string, start string) []string {
	var path []string
	onPath := map[string]int{}
	visited := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		if i, ok := onPath[n]; ok {
			return canonicalCycle(path[i:])
		}
		if visited[n] {
			return nil
		}
		visited[n] = true
		onPath[n] = len(path)
		path = append(path, n)
		for _, m := range adj[n] {
			if c := dfs(m); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		delete(onPath, n)
		return nil
	}
	return dfs(start)
}

// canonicalCycle rotates a cycle so its smallest node comes first,
// making reports independent of where the DFS entered.
func canonicalCycle(c []string) []string {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	out := make([]string, 0, len(c))
	out = append(out, c[min:]...)
	return append(out, c[:min]...)
}

// collectOrderEvents walks one function body in lexical order and
// records lock acquires/releases and same-package static calls.
func collectOrderEvents(u *Unit, fd *ast.FuncDecl) []orderEvent {
	var events []orderEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock holds the lock to function end: record
			// nothing, the lock stays in the held set. A deferred Lock
			// is nonsense; skip the whole deferred call either way, but
			// keep walking its arguments.
			if _, acquire, ok := mutexOp(u, x.Call); ok && !acquire {
				return false
			}
			return true
		case *ast.CallExpr:
			if key, acquire, ok := mutexOp(u, x); ok {
				kind := evRelease
				if acquire {
					kind = evAcquire
				}
				events = append(events, orderEvent{kind: kind, pos: x.Pos(), key: key})
				return false
			}
			if fn := staticCallee(u, x); fn != nil {
				events = append(events, orderEvent{kind: evCall, pos: x.Pos(), callee: fn})
			}
			return true
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// mutexOp classifies a call as Lock/RLock (acquire) or Unlock/RUnlock
// (release) on an identifiable mutex, returning the graph node key:
// "Type.field" for struct-field mutexes, "pkgvar <name>" for
// package-level mutex variables. Locks held in local variables are
// ignored — they cannot participate in a cross-function ordering.
func mutexOp(u *Unit, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	recv := sel.X
	if !isSyncMutex(u.Info.TypeOf(recv)) {
		return "", false, false
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		s, okSel := u.Info.Selections[r]
		if !okSel || s.Kind() != types.FieldVal {
			return "", false, false
		}
		owner := s.Recv()
		if p, okPtr := owner.Underlying().(*types.Pointer); okPtr {
			owner = p.Elem()
		}
		named, okNamed := types.Unalias(owner).(*types.Named)
		if !okNamed {
			return "", false, false
		}
		return named.Obj().Name() + "." + r.Sel.Name, acquire, true
	case *ast.Ident:
		if v, okVar := u.Info.Uses[r].(*types.Var); okVar && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return "pkgvar " + v.Name(), acquire, true
		}
	}
	return "", false, false
}

// staticCallee resolves a call to a function or method declared in this
// package, or nil (stdlib calls, function values, interface methods).
func staticCallee(u *Unit, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := u.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != u.Pkg.Path() {
		return nil
	}
	return fn
}
