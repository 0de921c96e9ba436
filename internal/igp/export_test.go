package igp

// SetMaxStepsFactor sets the fixpoint's step-cap factor (maxStepsFactor)
// for the external tests, which drive the cap through core and the public
// API, and returns a function that restores the old factor.
func SetMaxStepsFactor(f int) (restore func()) {
	old := maxStepsFactor
	maxStepsFactor = f
	return func() { maxStepsFactor = old }
}
