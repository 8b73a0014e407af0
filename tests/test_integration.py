"""End-to-end integration tests crossing all subsystem boundaries."""

from repro.data import VideoFeatureDataset, cifar10_like
from repro.imbalance import FixedCostModel, RandomSubsetDelay, lstm_ucf101_cost_model
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import MLPClassifier, SequenceLSTMClassifier
from repro.training import TrainingConfig, train_distributed


class TestEndToEnd:
    def test_sync_solo_majority_agree_on_easy_task(self):
        """All three variants must learn the easy task to high accuracy."""
        ds = cifar10_like(num_examples=384, image_size=4, signal=4.0, seed=0)
        train, val = ds.split(0.25, seed=0)
        finals = {}
        for mode in ("sync", "solo", "majority"):
            config = TrainingConfig(
                world_size=4,
                epochs=3,
                global_batch_size=64,
                mode=mode,
                learning_rate=0.1,
                optimizer="momentum",
                delay_injector=RandomSubsetDelay(1, 200.0, seed=1),
                cost_model=FixedCostModel(0.1),
                time_scale=0.001,
                model_sync_period_epochs=2,
                seed=0,
            )
            result = train_distributed(
                lambda: MLPClassifier(3 * 4 * 4, (32,), 10, seed=5),
                train,
                SoftmaxCrossEntropyLoss(),
                config,
                eval_dataset=val,
            )
            finals[mode] = result
        for mode, result in finals.items():
            assert result.final_epoch.eval_top1 > 0.8, mode
        # Under the injected imbalance the eager variants finish earlier.
        assert finals["solo"].total_sim_time < finals["sync"].total_sim_time

    def test_video_pipeline_end_to_end(self):
        """The full UCF101-like path: dataset -> bucketed loader -> LSTM ->

        eager-SGD with majority allreduce, exercising inherent imbalance,
        staleness tracking and the timing projection in one run.
        """
        dataset = VideoFeatureDataset(
            num_videos=160, feature_dim=8, num_classes=4, length_scale=0.04, seed=0
        )
        config = TrainingConfig(
            world_size=4,
            epochs=2,
            global_batch_size=32,
            mode="majority",
            learning_rate=0.1,
            optimizer="momentum",
            cost_model=lstm_ucf101_cost_model(batch_size=8),
            bucket_by_length=True,
            time_scale=0.001,
            model_sync_period_epochs=1,
            seed=0,
        )
        result = train_distributed(
            lambda: SequenceLSTMClassifier(feature_dim=8, hidden_dim=8, num_classes=4, seed=2),
            dataset,
            SoftmaxCrossEntropyLoss(),
            config,
        )
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss
        assert result.projection is not None
        # Majority guarantees a healthy number of fresh contributors.
        assert result.epochs[-1].mean_num_active >= 2.0
        # Periodic sync at every epoch leaves identical replicas.
        assert len({s.final_model_hash for s in result.rank_summaries}) == 1
