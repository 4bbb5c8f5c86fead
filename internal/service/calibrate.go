package service

import (
	"bytes"
	"encoding/json"
	"net/http"

	"overlapsim/internal/calib"
)

// calibrationInfo is the calibration metadata served in the catalog:
// what profile schema POST /v1/calibrate reads and how the fitted
// hardware is named.
type calibrationInfo struct {
	// ProfileVersion is the calib.Profile schema version this build
	// accepts.
	ProfileVersion int `json:"profile_version"`
	// Endpoint is the synchronous fit-and-validate endpoint.
	Endpoint string `json:"endpoint"`
	// DefaultSuffix names calibrated hardware in the returned overlay.
	DefaultSuffix string `json:"default_suffix"`
}

// calibrateBody is the POST /v1/calibrate response: the fitted overlay
// (an hw.Load file the client can save and pass to any CLI's -hw-file)
// and, when the profile carries step measurements, the
// simulated-vs-measured validation report.
type calibrateBody struct {
	Overlay json.RawMessage `json:"overlay"`
	Report  *calib.Report   `json:"report,omitempty"`
	Notes   []string        `json:"notes,omitempty"`
}

// handleCalibrate fits a measured profile synchronously. The request
// body is the profile JSON; ?override=true makes the overlay replace
// the stock names on load, ?suffix= renames the calibrated hardware.
// Nothing is registered server-side — the overlay is returned to the
// client, keeping the server's catalog untouched by other tenants'
// calibrations.
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, "profile")
	if !ok {
		return
	}
	p, err := calib.Parse(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := calib.FitOptions{
		Suffix:   r.URL.Query().Get("suffix"),
		Override: r.URL.Query().Get("override") == "true",
	}
	ctx, cancel := mergeDone(r.Context(), s.ctx)
	defer cancel()
	f, err := calib.Fit(ctx, p, opts)
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusServiceUnavailable, "calibration cancelled: %v", err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	overlay, err := f.Overlay()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body := calibrateBody{Overlay: overlay, Notes: f.Notes}
	if len(p.Steps) > 0 {
		rep, err := calib.Validate(ctx, p, f)
		if err != nil {
			if ctx.Err() != nil {
				writeError(w, http.StatusServiceUnavailable, "validation cancelled: %v", err)
				return
			}
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		body.Report = rep
	}
	writeJSON(w, http.StatusOK, body)
}
