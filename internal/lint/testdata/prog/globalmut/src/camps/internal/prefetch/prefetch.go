// Package prefetch mirrors the real scheme-table idiom: a package-level
// table with a static initializer, read from exported functions, is the
// sanctioned pattern; the same table written from an exported function
// is the violation.
package prefetch

var schemes = [...]string{0: "BASE", 1: "CAMPS"}

// Name only reads the table: no finding.
func Name(s int) string {
	return schemes[s]
}

// Rename is an exported runtime entry that illegally rewrites the table.
func Rename(s int, name string) {
	schemes[s] = name // want `package-level prefetch.schemes written outside init: prefetch.Rename is reachable from runtime path prefetch.Rename`
}
