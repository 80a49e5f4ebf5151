// The facts store: a checked-in table (lint.facts at the module root)
// declaring the privacy-relevant classification of symbols — raw-data
// sources, noise sanitizers, publish sinks, context-polling scopes and
// privacy-budget positions. The dataflow analyzers refuse to guess:
// a new endpoint or noise primitive must be classified here explicitly,
// which turns "someone remembered to think about privacy" into a
// reviewable diff.
package main

import (
	"fmt"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
)

// factsTable holds the parsed lint.facts declarations, keyed by the
// symbol notation pkgpath.Func / pkgpath.Type.Method (pointer receivers
// written without the star).
type factsTable struct {
	// sources: symbol -> result indices carrying raw (un-noised) data.
	sources map[string][]int
	// sanParams: symbol -> parameter indices (receiver is p0) the call
	// noises in place.
	sanParams map[string][]int
	// sanResults: symbol -> result indices returned already noised.
	sanResults map[string][]int
	// sanPkgs: packages whose every call result counts as noised
	// (internal/noise itself).
	sanPkgs map[string]bool
	// sinks: symbol -> parameter indices that publish their argument.
	sinks map[string][]int
	// sinkTypes: named types (e.g. net/http.ResponseWriter) whose
	// method calls publish every argument.
	sinkTypes map[string]bool
	// ctxScope: packages whose data-dependent loops must poll ctx.
	ctxScope map[string]bool
	// budgetParams: symbol -> parameter indices that are ε/δ positions.
	budgetParams map[string][]int
	// budgetFields: struct fields ("pkg.Type.Field") that are ε/δ
	// positions.
	budgetFields map[string]bool
	// budgetExempt: package path (exact or prefix) -> mandatory reason.
	budgetExempt map[string]string
	// refs: every declaration that names a function, method or field,
	// in file order, for checkSymbols.
	refs []factRef
}

// factRef is one declaration naming a function, method or field, kept
// with its position so a symbol that names nothing can be reported.
type factRef struct {
	pos  string // lint.facts:<line>
	kind string
	sym  string
}

func newFactsTable() *factsTable {
	return &factsTable{
		sources:      make(map[string][]int),
		sanParams:    make(map[string][]int),
		sanResults:   make(map[string][]int),
		sanPkgs:      make(map[string]bool),
		sinks:        make(map[string][]int),
		sinkTypes:    make(map[string]bool),
		ctxScope:     make(map[string]bool),
		budgetParams: make(map[string][]int),
		budgetFields: make(map[string]bool),
		budgetExempt: make(map[string]string),
	}
}

// loadFacts parses the facts file. Every line is
//
//	<kind> <symbol> [p<N>|r<N>...] [-- <reason>]
//
// with '#' comments. Unknown kinds and malformed specs are fatal: a
// typo in the security configuration must not silently weaken it.
func loadFacts(path string) (*factsTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ft := newFactsTable()
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var reason string
		if body, r, ok := strings.Cut(line, "--"); ok {
			line, reason = strings.TrimSpace(body), strings.TrimSpace(r)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"<kind> <symbol> [specs...]\"", path, i+1)
		}
		kind, sym, specs := fields[0], fields[1], fields[2:]
		params, results, err := parseSpecs(specs)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		switch kind {
		case "source", "sanitizer", "sink", "budget-param", "budget-field":
			ft.refs = append(ft.refs, factRef{pos: fmt.Sprintf("%s:%d", path, i+1), kind: kind, sym: sym})
		}
		switch kind {
		case "source":
			if len(results) == 0 {
				results = []int{0}
			}
			ft.sources[sym] = results
		case "sanitizer":
			if len(params) == 0 && len(results) == 0 {
				return nil, fmt.Errorf("%s:%d: sanitizer needs at least one p<N> or r<N> spec", path, i+1)
			}
			ft.sanParams[sym] = params
			ft.sanResults[sym] = results
		case "sanitizer-pkg":
			ft.sanPkgs[sym] = true
		case "sink":
			if len(params) == 0 {
				return nil, fmt.Errorf("%s:%d: sink needs at least one p<N> spec", path, i+1)
			}
			ft.sinks[sym] = params
		case "sinktype":
			ft.sinkTypes[sym] = true
		case "ctxflow-scope":
			ft.ctxScope[sym] = true
		case "budget-param":
			if len(params) == 0 {
				return nil, fmt.Errorf("%s:%d: budget-param needs at least one p<N> spec", path, i+1)
			}
			ft.budgetParams[sym] = params
		case "budget-field":
			ft.budgetFields[sym] = true
		case "budget-exempt":
			if reason == "" {
				return nil, fmt.Errorf("%s:%d: budget-exempt requires a reason after --", path, i+1)
			}
			ft.budgetExempt[sym] = reason
		default:
			return nil, fmt.Errorf("%s:%d: unknown fact kind %q", path, i+1, kind)
		}
	}
	return ft, nil
}

// checkSymbols rejects a declaration whose symbol names no function or
// method (no struct field, for budget-field) of its in-module package:
// such a line classifies nothing, so a typo would silently drop a
// source, sanitizer, sink or budget position. Symbols outside the
// module cannot be checked and pass; an in-module package this run did
// not load passes if its directory exists.
func (ft *factsTable) checkSymbols(l *loader) error {
	for _, r := range ft.refs {
		slash := strings.LastIndex(r.sym, "/") + 1
		dot := strings.Index(r.sym[slash:], ".")
		if dot < 0 {
			return fmt.Errorf("%s: %s %s: want pkgpath.Func, pkgpath.Type.Method or pkgpath.Type.Field", r.pos, r.kind, r.sym)
		}
		pkgPath, name := r.sym[:slash+dot], r.sym[slash+dot+1:]
		if !l.inModule(pkgPath) {
			continue
		}
		l.mu.Lock()
		pkg := l.pkgs[pkgPath]
		l.mu.Unlock()
		if pkg == nil {
			if _, err := os.Stat(l.dirFor(pkgPath)); err != nil {
				return fmt.Errorf("%s: %s %s: no package %s in the module", r.pos, r.kind, r.sym, pkgPath)
			}
			continue
		}
		if !declares(pkg.Types, r.sym, name, r.kind == "budget-field") {
			want := "function or method"
			if r.kind == "budget-field" {
				want = "struct field"
			}
			return fmt.Errorf("%s: %s %s names no %s of %s", r.pos, r.kind, r.sym, want, pkgPath)
		}
	}
	return nil
}

// declares reports whether pkg declares name — Func, Type.Method or
// Type.Field — as a function or a method whose facts key is sym (so a
// promoted method, keyed by its own receiver, does not count), or, when
// field is set, as a field of the named type itself.
func declares(pkg *types.Package, sym, name string, field bool) bool {
	typeName, member, isMember := strings.Cut(name, ".")
	if !isMember {
		_, ok := pkg.Scope().Lookup(name).(*types.Func)
		return ok && !field
	}
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return false
	}
	obj, index, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member)
	switch obj := obj.(type) {
	case *types.Func:
		return !field && funcKey(obj) == sym
	case *types.Var:
		return field && len(index) == 1
	}
	return false
}

func parseSpecs(specs []string) (params, results []int, err error) {
	for _, s := range specs {
		if len(s) < 2 || (s[0] != 'p' && s[0] != 'r') {
			return nil, nil, fmt.Errorf("bad spec %q: want p<N> or r<N>", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 {
			return nil, nil, fmt.Errorf("bad spec %q: want p<N> or r<N>", s)
		}
		if s[0] == 'p' {
			params = append(params, n)
		} else {
			results = append(results, n)
		}
	}
	sort.Ints(params)
	sort.Ints(results)
	return params, results, nil
}

// budgetExemptFor returns the declared exemption reason covering an
// import path, matching exact entries and path prefixes ("priview/
// examples" covers "priview/examples/quickstart").
func (ft *factsTable) budgetExemptFor(path string) (string, bool) {
	if r, ok := ft.budgetExempt[path]; ok {
		return r, true
	}
	for prefix, r := range ft.budgetExempt {
		if strings.HasPrefix(path, prefix+"/") {
			return r, true
		}
	}
	return "", false
}

// funcKey renders the facts-table symbol for a function object:
// pkgpath.Func for package functions, pkgpath.Type.Method for methods
// (pointer receivers written without the star).
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		// Interface or unnamed receiver: fall back to type notation.
		return types.TypeString(t, nil) + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// recvTypeKey names a method's receiver type ("net/http.
// ResponseWriter") for sinktype matching, or "" for non-methods.
func recvTypeKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}
