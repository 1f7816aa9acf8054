package serve

import "errors"

// Sentinel errors of the serving path. Handlers map them onto HTTP statuses
// (see statusOf); library callers branch with errors.Is.
var (
	// ErrUnknownPlan reports a request against a plan name the server does
	// not hold. 404.
	ErrUnknownPlan = errors.New("serve: unknown plan")
	// ErrBadRequest reports a transform request body the codec cannot turn
	// into a typed key table: not JSON, no rows, a missing or null key, or a
	// value of the wrong kind for its key column. 400.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrBodyTooLarge reports a request body over MaxBodyBytes. 413.
	ErrBodyTooLarge = errors.New("serve: request body too large")
	// ErrOverloaded reports an admission-control rejection: accepting the
	// request's rows would push the plan past its bounded in-flight row
	// budget. The typed 429 — clients should back off and retry.
	ErrOverloaded = errors.New("serve: plan over in-flight row budget")
	// ErrDraining reports a request that arrived after shutdown began. 503.
	ErrDraining = errors.New("serve: server is draining")
)
