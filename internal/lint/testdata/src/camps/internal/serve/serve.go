// Golden file for the ctxthread analyzer: camps/internal/serve is an
// orchestration package, so exported functions that spawn goroutines or
// hard-code context.Background/TODO without accepting a context are
// findings; ctx-threading functions and unexported helpers are not.
package serve

import "context"

// RunCampaign is the well-behaved shape: ctx is a parameter.
func RunCampaign(ctx context.Context, cells int) error { return nil }

func BadLaunch() {
	go func() {}() // want `exported BadLaunch launches a goroutine but accepts no context.Context`
}

func BadBackground() {
	_ = RunCampaign(context.Background(), 1) // want `exported BadBackground passes context.Background but accepts no context.Context`
}

func BadTODO() {
	_ = RunCampaign(context.TODO(), 1) // want `exported BadTODO passes context.TODO but accepts no context.Context`
}

func GoodPropagates(ctx context.Context) error {
	go func() {}() // fine: this function's caller holds the context
	return RunCampaign(ctx, 1)
}

func goodUnexported() {
	go func() {}() // unexported helpers are the exported caller's responsibility
}
