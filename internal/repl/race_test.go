//go:build race

package repl

// Under the race detector the model checker's states cost ~10x as much and
// share the machine with every raced suite; it explores a shallower bound.
func init() { modelDepth = 9 }
