package ot

import "maxelerator/internal/label"

// SendLabels transfers one wire-label pair per evaluator input bit
// through the extension session: the receiver learns exactly the label
// matching each of its choice bits. pairs is read in place and not
// retained.
func SendLabels(es *ExtensionSender, pairs []label.Pair) error {
	return ship(es, len(pairs), labelPair(pairs))
}

// AppendAnswer is SendLabels without the send: it reads the receiver's
// u matrix and appends the ciphertext frame that answers it, 32 bytes a
// pair, to dst, which it returns. The frame is the caller's, to send on
// the same connection before the sender's next batch; an empty batch
// reads and appends nothing, and has no frame.
func AppendAnswer(es *ExtensionSender, dst []byte, pairs []label.Pair) ([]byte, error) {
	return answer(es, dst, len(pairs), labelPair(pairs))
}

// labelPair yields transfer j's two labels.
func labelPair(pairs []label.Pair) func(j int) (label.Label, label.Label) {
	return func(j int) (label.Label, label.Label) { return pairs[j].False, pairs[j].True }
}

// ReceiveLabels obtains the active labels for the receiver's input
// bits: RequestLabels, the u frame's send, then FinishLabels. The
// returned slice is the caller's.
func ReceiveLabels(er *ExtensionReceiver, choices []bool) ([]label.Label, error) {
	return receive[label.Label](er, choices)
}

// RequestLabels builds the u matrix for the receiver's input bits and
// appends it, one frame, to dst, which it returns. It sends nothing:
// the caller sends the frame, in request order, and may send several
// requests' frames in one write. choices must not change until
// FinishLabels; see ExtensionReceiver for the order the two halves
// keep. An empty batch appends nothing and has no frame.
func RequestLabels(er *ExtensionReceiver, dst []byte, choices []bool) ([]byte, Pending[label.Label]) {
	return request[label.Label](er, dst, choices)
}

// FinishLabels reads the sender's ciphertexts for p and returns its
// active labels, the caller's.
func FinishLabels(er *ExtensionReceiver, p Pending[label.Label]) ([]label.Label, error) {
	return finish(er, p)
}
