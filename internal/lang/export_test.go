package lang

// Exported for the external tests, which replay corpora the loopgen
// package generates (loopgen imports lang).
var (
	LexMismatch     = lexMismatch
	ParseLowerSeeds = parseLowerSeeds
)
