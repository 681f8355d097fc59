//! Stream pipeline skeleton: a chain of stages connected by bounded
//! channels, one thread per stage — the typed analogue of
//! `motifs::pipeline` (stream programming is the paper's native idiom,
//! §2.1).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// A pipeline over items of type `T` (all stages are `T → T`; use an enum
/// or boxed payload for heterogeneous pipelines).
pub struct Pipeline<T: Send + 'static> {
    input: SyncSender<T>,
    output: Receiver<T>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Pipeline<T> {
    /// Build a pipeline from stage functions; `capacity` bounds each
    /// inter-stage channel (back-pressure). A capacity of 0 makes every
    /// hand-off a rendezvous.
    pub fn new(stages: Vec<Box<dyn FnMut(T) -> T + Send>>, capacity: usize) -> Pipeline<T> {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let (input, mut upstream) = sync_channel::<T>(capacity);
        let mut handles = Vec::with_capacity(stages.len());
        for (k, mut stage) in stages.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<T>(capacity);
            let upstream_rx = upstream;
            let handle = std::thread::Builder::new()
                .name(format!("pipeline-stage-{k}"))
                .spawn(move || {
                    for item in upstream_rx.iter() {
                        if tx.send(stage(item)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn stage thread");
            handles.push(handle);
            upstream = rx;
        }
        Pipeline {
            input,
            output: upstream,
            handles,
        }
    }

    /// Feed one item.
    pub fn push(&self, item: T) {
        self.input.send(item).expect("pipeline accepts input");
    }

    /// Close the input and collect every remaining output, joining stage
    /// threads.
    pub fn finish(self) -> Vec<T> {
        drop(self.input);
        let out: Vec<T> = self.output.iter().collect();
        for h in self.handles {
            let _ = h.join();
        }
        out
    }

    /// Run a whole batch through the pipeline. Feeding happens on a helper
    /// thread so the bounded channels' back-pressure cannot deadlock large
    /// batches.
    pub fn run_batch(
        stages: Vec<Box<dyn FnMut(T) -> T + Send>>,
        capacity: usize,
        items: impl IntoIterator<Item = T> + Send + 'static,
    ) -> Vec<T> {
        let Pipeline {
            input,
            output,
            handles,
        } = Pipeline::new(stages, capacity);
        let feeder = std::thread::spawn(move || {
            for item in items {
                if input.send(item).is_err() {
                    break;
                }
            }
            // Dropping `input` here closes the chain stage by stage.
        });
        let out: Vec<T> = output.iter().collect();
        feeder.join().expect("feeder thread");
        for h in handles {
            let _ = h.join();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_stage(k: i64) -> Box<dyn FnMut(i64) -> i64 + Send> {
        Box::new(move |x| x + k)
    }

    #[test]
    fn three_stages_shift_by_six() {
        let out = Pipeline::run_batch(
            vec![add_stage(1), add_stage(2), add_stage(3)],
            8,
            vec![0i64, 10, 20],
        );
        assert_eq!(out, vec![6, 16, 26]);
    }

    #[test]
    fn order_is_preserved() {
        let out = Pipeline::run_batch(vec![add_stage(0)], 4, (0..1000i64).collect::<Vec<_>>());
        assert_eq!(out, (0..1000i64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        let out = Pipeline::run_batch(vec![add_stage(1)], 4, Vec::<i64>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn back_pressure_does_not_deadlock() {
        // Batch far larger than channel capacity.
        let out = Pipeline::run_batch(
            vec![add_stage(1), add_stage(1)],
            2,
            (0..5000i64).collect::<Vec<_>>(),
        );
        assert_eq!(out.len(), 5000);
        assert_eq!(out[4999], 5001);
    }

    #[test]
    fn push_and_finish_api() {
        let pipe = Pipeline::new(vec![add_stage(5)], 4);
        pipe.push(1);
        pipe.push(2);
        let out = pipe.finish();
        assert_eq!(out, vec![6, 7]);
    }
}
