// Package nodeterm forbids nondeterminism sources in the simulation
// and export packages: every compared artifact (obs/SLO/energy
// exports, Results, reports) must be a pure function of the seed and
// the configuration, and the cheapest way to guarantee that is to make
// the ambient sources of entropy unreachable from model code.
//
// Four rules, each with its own message prefix:
//
//   - wall clock: time.Now, time.Since and friends read host time;
//     simulated time comes from des.Sim.Now.
//   - math/rand: the global functions draw from a process-global,
//     concurrency-order-dependent stream, and even seeded rand streams
//     changed across Go releases (1.20 gob, rand v2). All model
//     randomness flows through stats.RNG.
//   - environment: os.Getenv in a model package makes results depend
//     on invisible host state; configuration arrives through explicit
//     options structs.
//   - raw seed mixing: the splitmix64/xorshift magic constants outside
//     internal/stats mean someone is hand-rolling a seed derivation;
//     those belong in the stats substrate (SweepSeed, EntitySeed) so
//     stream independence arguments live in one reviewed place.
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"warehousesim/internal/analysis"
)

// Analyzer is the nodeterm check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock, global math/rand, os.Getenv and ad-hoc seed mixing in simulation/export packages",
	Run:  run,
}

// wallClock lists the time package functions that read or wait on the
// host clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs lists the os package functions that read ambient host
// configuration.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// mixConstants are the splitmix64 increment/mix multipliers and the
// xorshift64* multiplier used by stats.RNG. Their appearance outside
// the stats substrate is the signature of a hand-rolled PRNG or seed
// derivation.
var mixConstants = map[uint64]bool{
	0x9e3779b97f4a7c15: true,
	0xbf58476d1ce4e5b9: true,
	0x94d049bb133111eb: true,
	0x2545f4914f6cdd1d: true,
}

func run(pass *analysis.Pass) error {
	if !analysis.SimScope(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.BasicLit:
				checkLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSelector flags pkg.Func selections on the banned packages.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClock[sel.Sel.Name] {
			pass.Reportf(sel.Pos(),
				"wall clock: time.%s in a simulation package; simulated time comes from des.Sim.Now (seed-reproducible runs must not read host time)",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(sel.Pos(),
			"math/rand: rand.%s in a simulation package; all model randomness flows through stats.RNG so streams are stable across Go releases",
			sel.Sel.Name)
	case "os":
		if envFuncs[sel.Sel.Name] {
			pass.Reportf(sel.Pos(),
				"environment: os.%s in a simulation package; results must depend only on explicit configuration and the seed",
				sel.Sel.Name)
		}
	}
}

// checkLiteral flags the PRNG mixing constants.
func checkLiteral(pass *analysis.Pass, lit *ast.BasicLit) {
	if lit.Kind != token.INT {
		return
	}
	v, err := strconv.ParseUint(lit.Value, 0, 64)
	if err != nil || !mixConstants[v] {
		return
	}
	pass.Reportf(lit.Pos(),
		"raw seed mixing: PRNG mixing constant %s outside the stats substrate; derive seeds via stats.SweepSeed/stats.EntitySeed instead of hand-rolling splitmix64",
		lit.Value)
}
