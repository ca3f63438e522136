// Package remote puts the Salus software stack on real sockets (§5.2,
// Figures 6 and 7): the manufacturer's key-distribution service and the
// cloud's attestation/job gateway become RPC servers, and the two
// trusted-side parties — the SM enclave (as key client) and the data owner
// (as verifier) — talk to them over TCP.
//
// Every gateway — a device pool (ServeCluster, ServeFleet; a single
// instance is a one-device pool) or a federation front tier
// (ServeFederation) — speaks one owner vocabulary: Cluster.Boot,
// Cluster.Provision, Cluster.RunJob and Cluster.RunBatch. One session core
// implements the owner's side of it for ClusterSession and
// FederationSession, and one redial policy serves every client here.
//
// The transports are untrusted, exactly as in the paper: every sensitive
// payload that crosses them is independently protected (signed quotes,
// ECDH-sealed keys, AES-GCM-sealed job data), so a man in the middle can
// disrupt but never read or forge.
package remote

import (
	"fmt"

	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/rpc"
	"salus/internal/sgx"
)

// --- Manufacturer service ----------------------------------------------------

// KeyRequest is the wire form of a device-key request.
type KeyRequest struct {
	Quote sgx.Quote `json:"quote"`
	DNA   string    `json:"dna"`
}

// ServeManufacturer exposes the key-distribution service on addr
// (use "127.0.0.1:0" to pick a free port). It returns the server handle
// and the bound address.
func ServeManufacturer(svc *manufacturer.Service, addr string) (*rpc.Server, string, error) {
	srv := rpc.NewServer()
	srv.Handle("Manufacturer.RequestDeviceKey", rpc.Typed(func(in KeyRequest) (manufacturer.KeyResponse, error) {
		return svc.RequestDeviceKey(in.Quote, fpga.DNA(in.DNA))
	}))
	srv.Handle("Manufacturer.Root", rpc.Typed(func(struct{}) ([]byte, error) {
		return svc.Root(), nil
	}))
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// KeyClient is the SM enclave's view of a remote manufacturer. It
// implements smapp.KeyService, and it survives manufacturer restarts under
// the package's shared redial policy: a dropped connection is re-dialed
// with capped backoff, while application-level rejections — wrong device,
// untrusted quote — are never retried.
type KeyClient struct {
	cn *conn
}

// DialManufacturer connects to a manufacturer server.
func DialManufacturer(addr string) (*KeyClient, error) {
	cn, err := dialConn(addr)
	if err != nil {
		return nil, fmt.Errorf("remote: manufacturer: %w", err)
	}
	return &KeyClient{cn: cn}, nil
}

// RequestDeviceKey implements smapp.KeyService over the wire.
func (k *KeyClient) RequestDeviceKey(quote sgx.Quote, dna fpga.DNA) (manufacturer.KeyResponse, error) {
	var resp manufacturer.KeyResponse
	err := k.cn.call("Manufacturer.RequestDeviceKey", KeyRequest{Quote: quote, DNA: string(dna)}, &resp)
	return resp, err
}

// Root fetches the provisioning-authority root over the wire. Note: a real
// verifier obtains the root out of band (it IS the trust anchor); this
// endpoint exists for tooling convenience only.
func (k *KeyClient) Root() ([]byte, error) {
	var root []byte
	err := k.cn.call("Manufacturer.Root", struct{}{}, &root)
	return root, err
}

// Close releases the connection; a call parked in redial backoff returns
// promptly.
func (k *KeyClient) Close() error { return k.cn.close() }
