package phdist

// Dense and Identical let the external tests check a PH another package
// builds against a dense assembly of their own, bit for bit.
var (
	Dense     = dense
	Identical = identical
)
