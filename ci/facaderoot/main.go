// Command facaderoot stands in for the library's users in the dead-code
// gate (ci/deadcode.sh): it calls every export of package dias, so code
// that only the facade reaches counts as live. The calls sit behind a
// guard the compiler cannot fold, so the linker keeps them; run without
// 100 arguments, the program does nothing.
package main

import (
	"os"

	"dias"
)

func main() {
	if len(os.Args) < 100 {
		return
	}
	var stack *dias.Stack
	stack, _ = dias.NewStack(dias.StackConfig{})
	stack.SubmitAt(0, 0, nil)
	_ = stack.SubmitStream(nil, nil, 0, 0)
	stack.Run()
	_ = stack.Records()
	_, _ = dias.NewFederation(dias.FederationConfig{})
	use(dias.RoutingPolicies(), dias.RoutingOptions{})
	use(dias.AdmissionPolicies(), dias.AdmissionOptions{})
	use(dias.ScalePolicies(), dias.ScaleOptions{})
	var factory dias.DeflatorFactory = use(dias.DeflationPolicies(), dias.DeflationOptions{})
	_, _ = factory(stack.Sim)
}

// use calls every method of a policy family and returns the policy its
// last name builds.
func use[P, O any](f *dias.PolicyFamily[P, O], opts O) (p P) {
	_ = f.Family()
	_ = f.Policies()
	for _, name := range f.Names() {
		var info dias.PolicyInfo
		info, _ = f.Lookup(name)
		p, _ = f.New(info.Name, opts)
	}
	return p
}
