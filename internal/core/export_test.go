package core

// The soundness tests' random nets and concrete reference, for the
// external test that also checks packets against them: the data plane
// imports core.
var (
	RandomEBGPNetwork = randomEBGPNetwork
	RandomIBGPNetwork = randomIBGPNetwork
	ConcreteRun       = concreteRun
)
